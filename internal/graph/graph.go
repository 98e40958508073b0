// Package graph provides the undirected-graph substrate used by the radio
// network simulator: adjacency-list graphs, traversal, diameter computation,
// connectivity, and independence-number tooling (verification, greedy maximal
// independent sets, exact maximum independent sets for small instances, and
// growth-bound measurement).
//
// Radio networks in the paper are undirected graphs G = (V,E); nodes are
// indexed 0..n-1. The graph is visible only to the simulation engine and to
// analysis code — protocol code never sees it (ad-hoc model).
package graph

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Graph is an undirected simple graph on vertices 0..n-1.
//
// Like the adjacency lists, the graph is safe for concurrent readers —
// including the methods that lazily build the cached CSR view (Freeze, BFS,
// Diameter, the engines) — but mutation (AddEdge, SortAdjacency) requires
// external synchronization against all other use.
type Graph struct {
	n   int
	adj [][]int32

	mu  sync.Mutex // guards csr; adjacency itself needs external sync
	csr *CSR       // cached frozen view (see Freeze); nil when stale
}

// New returns an empty graph on n vertices.
func New(n int) *Graph {
	if n < 0 {
		n = 0
	}
	return &Graph{n: n, adj: make([][]int32, n)}
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int {
	total := 0
	for _, nb := range g.adj {
		total += len(nb)
	}
	return total / 2
}

// AddEdge inserts the undirected edge {u,v}. Self-loops and duplicate edges
// are ignored (the model is a simple graph).
func (g *Graph) AddEdge(u, v int) {
	if u == v || u < 0 || v < 0 || u >= g.n || v >= g.n {
		return
	}
	if g.HasEdge(u, v) {
		return
	}
	g.invalidate()
	g.adj[u] = append(g.adj[u], int32(v))
	g.adj[v] = append(g.adj[v], int32(u))
}

// HasEdge reports whether {u,v} is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || v < 0 || u >= g.n || v >= g.n {
		return false
	}
	a, b := u, v
	if len(g.adj[a]) > len(g.adj[b]) {
		a, b = b, a
	}
	for _, w := range g.adj[a] {
		if int(w) == b {
			return true
		}
	}
	return false
}

// Degree returns the degree of v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// MaxDegree returns Δ(G), 0 for the empty graph.
func (g *Graph) MaxDegree() int {
	maxDeg := 0
	for _, nb := range g.adj {
		if len(nb) > maxDeg {
			maxDeg = len(nb)
		}
	}
	return maxDeg
}

// Neighbors returns the adjacency list of v. The returned slice is shared
// with the graph and must not be modified.
func (g *Graph) Neighbors(v int) []int32 { return g.adj[v] }

// SortAdjacency sorts every adjacency list ascending, giving the graph a
// canonical in-memory form (useful for deterministic iteration and tests).
func (g *Graph) SortAdjacency() {
	g.invalidate()
	for _, nb := range g.adj {
		sort.Slice(nb, func(i, j int) bool { return nb[i] < nb[j] })
	}
}

// Clone returns a deep copy.
func (g *Graph) Clone() *Graph {
	c := New(g.n)
	for v, nb := range g.adj {
		c.adj[v] = append([]int32(nil), nb...)
	}
	return c
}

// Validate checks structural invariants: symmetry, no self-loops, no
// duplicates, indices in range.
func (g *Graph) Validate() error {
	for v, nb := range g.adj {
		seen := make(map[int32]bool, len(nb))
		for _, w := range nb {
			if int(w) == v {
				return fmt.Errorf("self-loop at %d", v)
			}
			if w < 0 || int(w) >= g.n {
				return fmt.Errorf("vertex %d has out-of-range neighbor %d", v, w)
			}
			if seen[w] {
				return fmt.Errorf("duplicate edge {%d,%d}", v, w)
			}
			seen[w] = true
			if !g.HasEdge(int(w), v) {
				return fmt.Errorf("asymmetric edge {%d,%d}", v, w)
			}
		}
	}
	return nil
}

// Unreachable is the distance reported for vertices not reachable from the
// BFS source(s).
const Unreachable = -1

// BFS returns the vector of hop distances from src; Unreachable for
// disconnected vertices.
func (g *Graph) BFS(src int) []int {
	return g.MultiBFS([]int{src})
}

// MultiBFS returns hop distances from the nearest of the given sources.
// It traverses the frozen CSR view (building it on first use) so the edge
// scan is one contiguous array walk.
func (g *Graph) MultiBFS(sources []int) []int {
	return g.Freeze().MultiBFS(sources)
}

// Eccentricity returns max distance from v to any reachable vertex, and
// whether all vertices were reachable.
func (g *Graph) Eccentricity(v int) (ecc int, connected bool) {
	dist := g.BFS(v)
	connected = true
	for _, d := range dist {
		if d == Unreachable {
			connected = false
			continue
		}
		if d > ecc {
			ecc = d
		}
	}
	return ecc, connected
}

// Connected reports whether the graph is connected (vacuously true for n<=1).
func (g *Graph) Connected() bool {
	if g.n <= 1 {
		return true
	}
	_, ok := g.Eccentricity(0)
	return ok
}

// ErrDisconnected is returned by Diameter on disconnected graphs.
var ErrDisconnected = errors.New("graph: disconnected")

// Diameter computes the exact diameter by running a BFS from every vertex.
// O(n·m); intended for the n ≤ ~10⁴ instances the experiments use.
func (g *Graph) Diameter() (int, error) {
	if g.n == 0 {
		return 0, nil
	}
	diam := 0
	for v := 0; v < g.n; v++ {
		ecc, ok := g.Eccentricity(v)
		if !ok {
			return 0, ErrDisconnected
		}
		if ecc > diam {
			diam = ecc
		}
	}
	return diam, nil
}

// DiameterApprox returns a lower bound on the diameter within a factor 2,
// computed by a double BFS sweep. Returns ErrDisconnected when applicable.
func (g *Graph) DiameterApprox() (int, error) {
	if g.n == 0 {
		return 0, nil
	}
	dist := g.BFS(0)
	far, fd := 0, 0
	for v, d := range dist {
		if d == Unreachable {
			return 0, ErrDisconnected
		}
		if d > fd {
			far, fd = v, d
		}
	}
	ecc, ok := g.Eccentricity(far)
	if !ok {
		return 0, ErrDisconnected
	}
	return ecc, nil
}

// InducedSubgraph returns the subgraph induced on keep (a vertex set given
// as indices into g), along with the mapping old→new (-1 for dropped).
func (g *Graph) InducedSubgraph(keep []int) (*Graph, []int) {
	remap := make([]int, g.n)
	for i := range remap {
		remap[i] = -1
	}
	for i, v := range keep {
		remap[v] = i
	}
	sub := New(len(keep))
	for i, v := range keep {
		for _, w := range g.adj[v] {
			j := remap[w]
			if j > i { // add each edge once
				sub.adj[i] = append(sub.adj[i], int32(j))
				sub.adj[j] = append(sub.adj[j], int32(i))
			}
		}
	}
	return sub, remap
}
