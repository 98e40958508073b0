package dyn

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
)

// Grower builds a randomized schedule one epoch at a time and keeps what it
// has built. Churn and EdgeFaults draw each epoch from the generator state
// the epoch before left and never look ahead, so the schedule for E epochs
// is a prefix of the schedule for any E' > E. Upto exploits that: variants
// of one generator that differ only in their epoch count (an Epochs sweep
// through the serve layer's prefix cache, DESIGN.md §9) draw and freeze each
// epoch once instead of once per variant. A Grower is safe for concurrent
// use; the schedules Upto returns are immutable like any other.
type Grower struct {
	mu       sync.Mutex
	epochLen int
	draw     func() Delta // the next epoch's delta; advances the generator
	drawn    int          // epochs drawn so far
	s        Schedule     // epoch 0 and every non-empty epoch drawn so far
	bytes    atomic.Int64 // MemBytes of s's snapshots; read without mu
}

// newGrower starts a grower at epoch 0, a private snapshot of base; the
// caller installs draw, which may read that snapshot (g.s.csrs[0]) as the
// base topology.
func newGrower(base *graph.Graph, epochLen int) (*Grower, error) {
	if err := checkShape(0, epochLen); err != nil {
		return nil, err
	}
	if base == nil || base.N() == 0 {
		return nil, fmt.Errorf("dyn: empty base graph")
	}
	csr := base.Freeze().WithDelta(nil, nil) // a private flat copy
	g := &Grower{
		epochLen: epochLen,
		s:        Schedule{starts: []int{0}, csrs: []*graph.CSR{csr}, deltas: []Delta{{}}},
	}
	g.bytes.Store(csr.MemBytes())
	return g, nil
}

// Upto returns the schedule of the first epochs epochs — the one the
// generator's one-shot form builds for that count — drawing and freezing
// the epochs not built yet. A negative count is 0.
func (g *Grower) Upto(epochs int) *Schedule {
	g.mu.Lock()
	defer g.mu.Unlock()
	for ; g.drawn < epochs; g.drawn++ {
		d := g.draw()
		if d.empty() {
			continue
		}
		csr := g.s.csrs[len(g.s.csrs)-1].WithDelta(d.Remove, d.Add)
		g.s.starts = append(g.s.starts, (g.drawn+1)*g.epochLen)
		g.s.csrs = append(g.s.csrs, csr)
		g.s.deltas = append(g.s.deltas, d)
		g.bytes.Add(csr.MemBytes())
	}
	// Full slice expressions: later growth appends past k without touching
	// what the returned schedule can see.
	k := sort.SearchInts(g.s.starts, max(epochs, 0)*g.epochLen+1)
	return &Schedule{starts: g.s.starts[:k:k], csrs: g.s.csrs[:k:k], deltas: g.s.deltas[:k:k]}
}

// MemBytes returns the resident size of the snapshots built so far. It
// does not wait for an Upto in progress.
func (g *Grower) MemBytes() int64 { return g.bytes.Load() }
