package graph

// This file supports dynamic topologies (internal/dyn): batched edge deltas
// applied to a live graph with an exact undo record (ApplyDelta), or from
// one frozen snapshot straight to the next (CSR.WithDelta, which builds each
// epoch of a dyn.Schedule). Both happen once per epoch, never per simulation
// step, so the engines' zero-alloc step loop is untouched between epoch
// boundaries.

import "slices"

// Edge is an undirected edge {U, V} of a delta. Orientation is irrelevant;
// self-loops and out-of-range endpoints are ignored exactly as AddEdge
// ignores them.
type Edge struct {
	U, V int32
}

// Undo records the pre-delta adjacency lists of every vertex an ApplyDelta
// call touched, so Revert can restore the graph exactly — including
// neighbor-list order, which the frozen CSR (and therefore byte-level run
// reproducibility) depends on.
type Undo struct {
	verts []int32
	lists [][]int32
}

// ApplyDelta removes then adds the given undirected edges as one batch and
// returns an Undo that restores the prior graph exactly. Removing an absent
// edge and adding a present one are no-ops, as are self-loops and
// out-of-range endpoints. The cached CSR is invalidated once for the whole
// batch; cost is O(Σ degree of the touched vertices), independent of n.
func (g *Graph) ApplyDelta(remove, add []Edge) *Undo {
	g.invalidate()
	u := &Undo{}
	saved := make(map[int32]bool, 2*(len(remove)+len(add)))
	save := func(v int32) {
		if saved[v] {
			return
		}
		saved[v] = true
		u.verts = append(u.verts, v)
		u.lists = append(u.lists, append([]int32(nil), g.adj[v]...))
	}
	for _, e := range remove {
		if !g.edgeInRange(e) {
			continue
		}
		save(e.U)
		save(e.V)
		g.removeArc(e.U, e.V)
		g.removeArc(e.V, e.U)
	}
	for _, e := range add {
		if !g.edgeInRange(e) || g.HasEdge(int(e.U), int(e.V)) {
			continue
		}
		save(e.U)
		save(e.V)
		g.adj[e.U] = append(g.adj[e.U], e.V)
		g.adj[e.V] = append(g.adj[e.V], e.U)
	}
	return u
}

// Revert restores the adjacency lists saved by the matching ApplyDelta.
// Undos must be reverted in reverse application order when several deltas
// are stacked.
func (g *Graph) Revert(u *Undo) {
	g.invalidate()
	for i, v := range u.verts {
		g.adj[v] = u.lists[i]
	}
}

// edgeInRange reports whether e names a valid non-loop edge slot.
func (g *Graph) edgeInRange(e Edge) bool { return edgeOK(e, g.n) }

func edgeOK(e Edge, n int) bool {
	return e.U != e.V && e.U >= 0 && e.V >= 0 && int(e.U) < n && int(e.V) < n
}

// removeArc deletes w from v's neighbor list, preserving the order of the
// remaining entries. The list is rebuilt into a fresh slice rather than
// filtered in place: Builder-built graphs carve their lists out of one
// shared flat array that a previously returned CSR may still reference.
func (g *Graph) removeArc(v, w int32) {
	old := g.adj[v]
	for i, x := range old {
		if x == w {
			nl := make([]int32, 0, len(old)-1)
			nl = append(nl, old[:i]...)
			nl = append(nl, old[i+1:]...)
			g.adj[v] = nl
			return
		}
	}
}

// WithDelta returns the flat snapshot that c.Graph(), ApplyDelta(remove,
// add) and Freeze would produce, list for list: surviving neighbors keep
// their order, additions append in delta order, and absent removals,
// present additions, self-loops and out-of-range endpoints are no-ops. It
// runs in O(n + m + Σ degree of the added edges' endpoints) with no mutable
// Graph, undo record or per-edge allocation in between; c is unchanged.
func (c *CSR) WithDelta(remove, add []Edge) *CSR {
	f := c.Unpack()
	n := f.N()
	off, nb := f.offsets, f.edges

	// Removals, counting-sorted into per-vertex lists
	// remNb[remOff[v]:remOff[v+1]].
	remOff := make([]int32, n+2)
	for _, e := range remove {
		if edgeOK(e, n) {
			remOff[e.U+2]++
			remOff[e.V+2]++
		}
	}
	for i := 2; i < len(remOff); i++ {
		remOff[i] += remOff[i-1]
	}
	remNb := make([]int32, remOff[n+1])
	for _, e := range remove {
		if edgeOK(e, n) {
			remNb[remOff[e.U+1]] = e.V
			remOff[e.U+1]++
			remNb[remOff[e.V+1]] = e.U
			remOff[e.V+1]++
		}
	}

	// Additions in delta order. An edge is present if it survives in c or
	// was accepted earlier in this batch; each accepted edge is chained onto
	// both endpoints' pending arcs (1-based indices, 0 ends a chain).
	type arc struct{ to, next int32 }
	arcs := make([]arc, 0, 2*len(add))
	head := make([]int32, n)
	tail := make([]int32, n)
	link := func(u, v int32) {
		arcs = append(arcs, arc{to: v})
		i := int32(len(arcs))
		if tail[u] == 0 {
			head[u] = i
		} else {
			arcs[tail[u]-1].next = i
		}
		tail[u] = i
	}
	for _, e := range add {
		if !edgeOK(e, n) {
			continue
		}
		u, v := e.U, e.V
		if off[v+1]-off[v] < off[u+1]-off[u] {
			u, v = v, u
		}
		present := slices.Contains(nb[off[u]:off[u+1]], v) &&
			!slices.Contains(remNb[remOff[u]:remOff[u+1]], v)
		for i := head[u]; i != 0 && !present; i = arcs[i-1].next {
			present = arcs[i-1].to == v
		}
		if !present {
			link(u, v)
			link(v, u)
		}
	}

	// Survivors: mark[w] == v+1 exactly when w ∈ rem(v), stamped per
	// vertex — once to size the edge array, once to fill it.
	mark := make([]int32, n)
	total := int(off[n]) + len(arcs)
	for v := 0; v < n; v++ {
		if rs := remNb[remOff[v]:remOff[v+1]]; len(rs) > 0 {
			stamp := int32(v + 1)
			for _, w := range rs {
				mark[w] = stamp
			}
			for _, w := range nb[off[v]:off[v+1]] {
				if mark[w] == stamp {
					total--
				}
			}
		}
	}
	offsets := make([]int32, n+1)
	edges := make([]int32, 0, total)
	for v := 0; v < n; v++ {
		offsets[v] = int32(len(edges))
		list := nb[off[v]:off[v+1]]
		if rs := remNb[remOff[v]:remOff[v+1]]; len(rs) > 0 {
			stamp := int32(v + 1)
			for _, w := range rs {
				mark[w] = stamp
			}
			for _, w := range list {
				if mark[w] != stamp {
					edges = append(edges, w)
				}
			}
		} else {
			edges = append(edges, list...)
		}
		for i := head[v]; i != 0; i = arcs[i-1].next {
			edges = append(edges, arcs[i-1].to)
		}
	}
	offsets[n] = int32(len(edges))
	return &CSR{offsets: offsets, edges: edges}
}

// Graph materializes the CSR snapshot back into a mutable Graph whose
// adjacency lists preserve the CSR's neighbor order. Dynamic-topology
// experiments use it to validate protocol output against the epoch in force
// when the run ended.
func (c *CSR) Graph() *Graph {
	n := c.N()
	g := New(n)
	cur := c.Cursor()
	for v := 0; v < n; v++ {
		g.adj[v] = append([]int32(nil), cur.List(v)...)
	}
	return g
}

// Equal reports whether two CSR snapshots are identical: same vertex count
// and the same neighbor lists in the same order. Storage form is not part
// of the identity — a packed snapshot equals its flat original.
func (c *CSR) Equal(o *CSR) bool {
	if c.N() != o.N() {
		return false
	}
	for i, off := range c.offsets {
		if off != o.offsets[i] {
			return false
		}
	}
	if !c.packed() && !o.packed() {
		for i, e := range c.edges {
			if e != o.edges[i] {
				return false
			}
		}
		return true
	}
	cc, oc := c.Cursor(), o.Cursor()
	for v := 0; v < c.N(); v++ {
		cl, ol := cc.List(v), oc.List(v)
		for i := range cl {
			if cl[i] != ol[i] {
				return false
			}
		}
	}
	return true
}
