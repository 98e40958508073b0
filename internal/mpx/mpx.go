// Package mpx implements Miller–Peng–Xu exponential-shift graph clustering
// (“Parallel graph decompositions using random shifts”, SPAA '13), in the two
// forms the paper uses:
//
//   - Partition(β): every node is a candidate center — the original form
//     used by Haeupler–Wajc and Czumaj–Davies;
//   - Partition(β, MIS): only maximal-independent-set nodes are candidate
//     centers — the paper's modification (§2.2) that replaces the
//     O(log_D n / β) expected center distance of CD21's Theorem 2.2 with the
//     O(log_D α / β) of Theorem 2.
//
// Each center v draws δ_v ~ Exp(β); each node u joins the cluster of the
// center minimizing dist(u,v) − δ_v. The package also computes the paper's
// analysis quantities m_i, T_β, B_β, S_β, s_j and the bad-j condition of
// Lemmas 4–5.
package mpx

import (
	"container/heap"
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/xrand"
)

// Assignment is the result of one clustering.
type Assignment struct {
	// Center[u] is the center vertex u's cluster, or -1 if no center
	// reaches u (possible only in disconnected graphs).
	Center []int
	// Hops[u] is dist(u, Center[u]) in hops (0 for centers), or -1.
	Hops []int
	// Delta[v] is the exponential shift drawn by center v (0 elsewhere).
	Delta []float64
	// Beta is the parameter used.
	Beta float64
}

// item is a priority-queue entry for the shifted multi-source Dijkstra.
type item struct {
	node   int32
	center int32
	hops   int32
	key    float64
}

type pq []item

func (p pq) Len() int           { return len(p) }
func (p pq) Less(i, j int) bool { return p[i].key < p[j].key }
func (p pq) Swap(i, j int)      { p[i], p[j] = p[j], p[i] }
func (p *pq) Push(x any)        { *p = append(*p, x.(item)) }
func (p *pq) Pop() any          { old := *p; n := len(old); x := old[n-1]; *p = old[:n-1]; return x }

// Partition clusters g with parameter beta using the given candidate
// centers. Pass all vertices for the CD21 form or an MIS for the paper's
// form. Shift draws consume rng; run repeatedly for fresh clusterings.
func Partition(g *graph.Graph, centers []int, beta float64, rng *xrand.RNG) (*Assignment, error) {
	n := g.N()
	if n == 0 {
		return nil, fmt.Errorf("mpx: empty graph")
	}
	if beta <= 0 {
		return nil, fmt.Errorf("mpx: beta must be positive, got %v", beta)
	}
	if len(centers) == 0 {
		return nil, fmt.Errorf("mpx: no candidate centers")
	}
	a := &Assignment{
		Center: make([]int, n),
		Hops:   make([]int, n),
		Delta:  make([]float64, n),
		Beta:   beta,
	}
	best := make([]float64, n)
	for v := range a.Center {
		a.Center[v] = -1
		a.Hops[v] = -1
		best[v] = math.Inf(1)
	}
	q := make(pq, 0, len(centers))
	for _, c := range centers {
		if c < 0 || c >= n {
			return nil, fmt.Errorf("mpx: center %d out of range", c)
		}
		delta := rng.Exponential(beta)
		a.Delta[c] = delta
		q = append(q, item{node: int32(c), center: int32(c), hops: 0, key: -delta})
	}
	heap.Init(&q)
	for q.Len() > 0 {
		it := heap.Pop(&q).(item)
		u := int(it.node)
		if it.key >= best[u] {
			continue
		}
		best[u] = it.key
		a.Center[u] = int(it.center)
		a.Hops[u] = int(it.hops)
		for _, w := range g.Neighbors(u) {
			nk := it.key + 1
			if nk < best[w] {
				heap.Push(&q, item{node: w, center: it.center, hops: it.hops + 1, key: nk})
			}
		}
	}
	return a, nil
}

// NumClusters returns the number of non-empty clusters.
func (a *Assignment) NumClusters() int {
	seen := make(map[int]bool)
	for _, c := range a.Center {
		if c >= 0 {
			seen[c] = true
		}
	}
	return len(seen)
}

// MaxRadius returns the largest cluster radius (0 for all-singleton).
func (a *Assignment) MaxRadius() int {
	maxR := 0
	for u, c := range a.Center {
		if c >= 0 && a.Hops[u] > maxR {
			maxR = a.Hops[u]
		}
	}
	return maxR
}

// ValidateClusters checks structural soundness: every assigned node's hop
// count equals the true distance to its assigned center's shifted win, every
// center is in its own cluster with 0 hops, and clusters are connected.
func (a *Assignment) ValidateClusters(g *graph.Graph) error {
	n := g.N()
	if len(a.Center) != n {
		return fmt.Errorf("mpx: assignment size %d vs graph %d", len(a.Center), n)
	}
	for u, c := range a.Center {
		if c < 0 {
			continue
		}
		if a.Center[c] != c {
			return fmt.Errorf("mpx: center %d assigned to %d", c, a.Center[c])
		}
		if c == u && a.Hops[u] != 0 {
			return fmt.Errorf("mpx: center %d has nonzero hops %d", u, a.Hops[u])
		}
		if a.Hops[u] < 0 {
			return fmt.Errorf("mpx: assigned node %d has negative hops", u)
		}
	}
	// Connectivity within the shifted-shortest-path tree: every non-center
	// member must have a neighbor one hop closer in the same cluster.
	for u, c := range a.Center {
		if c < 0 || u == c {
			continue
		}
		ok := false
		for _, w := range g.Neighbors(u) {
			if a.Center[w] == c && a.Hops[w] == a.Hops[u]-1 {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("mpx: node %d (cluster %d, hops %d) has no uphill neighbor", u, c, a.Hops[u])
		}
	}
	return nil
}
