package graph

// This file provides the frozen compressed-sparse-row (CSR) view of a Graph
// and the edge-list Builder used by generators.
//
// CSR packs every adjacency list into one flat []int32 edge array plus an
// offsets array, so the simulation engines and BFS walk neighbor lists with
// perfect cache locality instead of chasing per-vertex slice headers. A
// Graph lazily caches its CSR view (Freeze); any mutation invalidates the
// cache. Builder constructs a graph in O(n + m) total — duplicate edges and
// self-loops are dropped in a single linear dedup pass — instead of the
// O(Σ deg²) cost of repeated AddEdge duplicate scans.

// CSR is an immutable compressed-sparse-row snapshot of a graph: the
// neighbor lists of vertices 0..n-1 concatenated in vertex order inside one
// flat edge array. It is safe for concurrent readers. A CSR obtained from
// Graph.Freeze is valid until the graph is next mutated; mutating the graph
// and continuing to use an old CSR snapshot is a caller bug.
//
// A snapshot stores its adjacency in one of two forms: the flat edge array
// (every CSR the Builder or Freeze produces) or the bit-packed blob (Pack,
// compact.go) behind the same accessor contract. Degree and the
// offsets table are identical in both; only how a neighbor list is fetched
// differs, and zero-alloc consumers go through NeighborCursor so the form
// never leaks into the step loop.
type CSR struct {
	offsets []int32 // len n+1; neighbor list of v is edges[offsets[v]:offsets[v+1]]
	edges   []int32 // len 2m; nil when packed

	// Packed form (compact.go): blob holds per-vertex bit-packed neighbor
	// blocks and the trailing slack, starts their byte offsets (len n+1).
	// Both nil when flat.
	blob   []byte
	starts []uint32
}

// N returns the number of vertices.
func (c *CSR) N() int { return len(c.offsets) - 1 }

// M returns the number of edges.
func (c *CSR) M() int { return int(c.offsets[len(c.offsets)-1]) / 2 }

// Degree returns the degree of v.
func (c *CSR) Degree(v int) int { return int(c.offsets[v+1] - c.offsets[v]) }

// Neighbors returns v's neighbor list. For flat snapshots it is a subslice
// of the shared edge array and must not be modified; packed snapshots
// decode into a fresh slice per call, so hot paths iterate through a reused
// NeighborCursor instead.
func (c *CSR) Neighbors(v int) []int32 {
	if c.blob == nil {
		return c.edges[c.offsets[v]:c.offsets[v+1]]
	}
	out := make([]int32, c.offsets[v+1]-c.offsets[v])
	decodeBlock(c.blob[c.starts[v]:], out)
	return out
}

// Freeze returns the CSR view of g, building and caching it on first use.
// The cache is invalidated by any mutation (AddEdge, SortAdjacency), so
// repeated Freeze calls on a quiescent graph are free. Freeze is safe for
// concurrent callers as long as no goroutine is mutating the graph, so the
// lazily-freezing read paths (BFS, the engines) stay concurrently callable
// like every other read.
func (g *Graph) Freeze() *CSR {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.csr != nil {
		return g.csr
	}
	offsets := make([]int32, g.n+1)
	total := int32(0)
	for v, nb := range g.adj {
		offsets[v] = total
		total += int32(len(nb))
	}
	offsets[g.n] = total
	edges := make([]int32, total)
	pos := 0
	for _, nb := range g.adj {
		pos += copy(edges[pos:], nb)
	}
	g.csr = &CSR{offsets: offsets, edges: edges}
	return g.csr
}

// invalidate drops the cached CSR snapshot after a mutation.
func (g *Graph) invalidate() {
	g.mu.Lock()
	g.csr = nil
	g.mu.Unlock()
}

// Builder accumulates undirected edges and assembles a Graph in one linear
// pass. Unlike repeated AddEdge calls — whose duplicate scan makes dense
// builds O(Σ deg²) — Build runs in O(n + m): edges land in a flat CSR array
// via counting sort, then a stamp-based pass drops duplicates while
// preserving first-insertion order, so the result is list-for-list identical
// to the same Add sequence replayed through AddEdge. Self-loops and
// out-of-range endpoints are ignored, exactly as AddEdge ignores them.
type Builder struct {
	n      int
	us, vs []int32
	deg    []int32 // degree counts including not-yet-deduped duplicates
}

// NewBuilder returns a Builder for a graph on n vertices.
func NewBuilder(n int) *Builder {
	if n < 0 {
		n = 0
	}
	return &Builder{n: n, deg: make([]int32, n)}
}

// Add records the undirected edge {u,v}. Self-loops, out-of-range endpoints,
// and (at Build time) duplicates are ignored.
func (b *Builder) Add(u, v int) {
	if u == v || u < 0 || v < 0 || u >= b.n || v >= b.n {
		return
	}
	b.us = append(b.us, int32(u))
	b.vs = append(b.vs, int32(v))
	b.deg[u]++
	b.deg[v]++
}

// Build assembles the graph. The Builder must not be reused afterwards.
func (b *Builder) Build() *Graph {
	n := b.n
	offsets := make([]int32, n+1)
	total := int32(0)
	for v := 0; v < n; v++ {
		offsets[v] = total
		total += b.deg[v]
	}
	offsets[n] = total

	// Counting-sort fill in insertion order, reusing deg as the write cursor
	// so each list is populated in the order its edges were Added.
	cursor := b.deg
	copy(cursor, offsets[:n])
	edges := make([]int32, total)
	for i := range b.us {
		u, v := b.us[i], b.vs[i]
		edges[cursor[u]] = v
		cursor[u]++
		edges[cursor[v]] = u
		cursor[v]++
	}

	// Order-preserving dedup: mark[w] holds v+1 while scanning v's list.
	mark := make([]int32, n)
	w := int32(0)
	for v := 0; v < n; v++ {
		lo, hi := offsets[v], offsets[v+1]
		offsets[v] = w
		for i := lo; i < hi; i++ {
			x := edges[i]
			if mark[x] == int32(v)+1 {
				continue
			}
			mark[x] = int32(v) + 1
			edges[w] = x
			w++
		}
	}
	offsets[n] = w
	edges = edges[:w]

	// Carve the adjacency lists out of the flat array with full slice
	// expressions so a later AddEdge append copies instead of clobbering the
	// next vertex's list, and pre-seed the CSR cache (the graph is born
	// frozen).
	g := &Graph{n: n, adj: make([][]int32, n)}
	for v := 0; v < n; v++ {
		g.adj[v] = edges[offsets[v]:offsets[v+1]:offsets[v+1]]
	}
	g.csr = &CSR{offsets: offsets, edges: edges}
	return g
}
