package dyn

// Randomized schedule generators. Each one is a pure function of
// (base graph, shape parameters, rng state): the same inputs always produce
// the same epoch deltas, which is what lets dynamic experiments keep the
// suite's determinism contract. All of them model dynamics over a fixed
// node set — churn and faults toggle base edges, they never invent new ones
// (mobility, which genuinely rewires, lives in gen.MobileUDG on top of
// FromGraphs).

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/xrand"
)

// Churn builds an epochs+1-epoch schedule of node churn on base: epoch 0 is
// the pristine base, and each subsequent epoch (every epochLen steps) draws
// a fresh down-set — each node is down independently with probability
// downFrac — and removes every base edge with a down endpoint. A down node
// keeps running its protocol; it is simply unreachable, like a radio that
// drove out of range. Nodes recover as soon as a later epoch's draw leaves
// them up.
func Churn(base *graph.Graph, epochs, epochLen int, downFrac float64, rng *xrand.RNG) (*Schedule, error) {
	if err := checkShape(epochs, epochLen); err != nil {
		return nil, err
	}
	g, err := NewChurn(base, epochLen, downFrac, rng)
	if err != nil {
		return nil, err
	}
	return g.Upto(epochs), nil
}

// NewChurn returns Churn's generator as a Grower: Upto(epochs) is
// Churn(base, epochs, epochLen, downFrac, rng) for every epochs ≥ 0. The
// grower draws from rng as it grows, so rng becomes its own; base is only
// read here.
func NewChurn(base *graph.Graph, epochLen int, downFrac float64, rng *xrand.RNG) (*Grower, error) {
	g, err := newGrower(base, epochLen)
	if err != nil {
		return nil, err
	}
	b := g.s.csrs[0]
	prevDown := make([]bool, b.N())
	down := make([]bool, b.N())
	g.draw = func() Delta {
		for v := range down {
			down[v] = rng.Bernoulli(downFrac)
		}
		d := churnDelta(b, prevDown, down)
		prevDown, down = down, prevDown
		return d
	}
	return g, nil
}

// EdgeFaults builds an epochs+1-epoch schedule of transient link failures:
// epoch 0 is the pristine base, and each subsequent epoch fails every base
// edge independently with probability failProb (fresh draws per epoch, so
// faults clear and strike anew — a fading-channel model rather than
// permanent damage).
func EdgeFaults(base *graph.Graph, epochs, epochLen int, failProb float64, rng *xrand.RNG) (*Schedule, error) {
	if err := checkShape(epochs, epochLen); err != nil {
		return nil, err
	}
	g, err := NewEdgeFaults(base, epochLen, failProb, rng)
	if err != nil {
		return nil, err
	}
	return g.Upto(epochs), nil
}

// NewEdgeFaults returns EdgeFaults' generator as a Grower: Upto(epochs) is
// EdgeFaults(base, epochs, epochLen, failProb, rng) for every epochs ≥ 0,
// with rng and base treated as in NewChurn.
func NewEdgeFaults(base *graph.Graph, epochLen int, failProb float64, rng *xrand.RNG) (*Grower, error) {
	g, err := newGrower(base, epochLen)
	if err != nil {
		return nil, err
	}
	b := g.s.csrs[0]
	prevFailed := map[graph.Edge]bool{}
	g.draw = func() Delta {
		failed := map[graph.Edge]bool{}
		var d Delta
		forEachEdge(b, func(u, v int32) {
			key := graph.Edge{U: u, V: v}
			f := rng.Bernoulli(failProb)
			if f {
				failed[key] = true
			}
			switch {
			case f && !prevFailed[key]:
				d.Remove = append(d.Remove, key)
			case !f && prevFailed[key]:
				d.Add = append(d.Add, key)
			}
		})
		prevFailed = failed
		return d
	}
	return g, nil
}

// PartitionHeal builds a three-phase schedule: the base topology on
// [0, cutStart), then every edge crossing the side marking removed on
// [cutStart, healStart), then the base topology again from healStart on.
// Experiment E19 uses it to measure re-convergence after a partition heals.
func PartitionHeal(base *graph.Graph, side []bool, cutStart, healStart int) (*Schedule, error) {
	n := base.N()
	if len(side) != n {
		return nil, fmt.Errorf("dyn: side marking has %d entries for %d nodes", len(side), n)
	}
	if cutStart < 1 || healStart <= cutStart {
		return nil, fmt.Errorf("dyn: need 1 <= cutStart (%d) < healStart (%d)", cutStart, healStart)
	}
	var crossing []graph.Edge
	forEachEdge(base.Freeze(), func(u, v int32) {
		if side[u] != side[v] {
			crossing = append(crossing, graph.Edge{U: u, V: v})
		}
	})
	return New(base, []EpochSpec{
		{Start: cutStart, Delta: Delta{Remove: crossing}},
		{Start: healStart, Delta: Delta{Add: crossing}},
	})
}

// churnDelta emits the delta for base edges whose presence flipped between
// two epochs' down-sets (an edge is present while both endpoints are up),
// scanning base's adjacency in deterministic (lower endpoint, list
// position) order.
func churnDelta(base *graph.CSR, wasDown, isDown []bool) Delta {
	var d Delta
	for u := 0; u < base.N(); u++ {
		for _, v := range base.Neighbors(u) {
			if int(v) <= u {
				continue
			}
			was := !wasDown[u] && !wasDown[v]
			is := !isDown[u] && !isDown[v]
			switch {
			case was && !is:
				d.Remove = append(d.Remove, graph.Edge{U: int32(u), V: v})
			case !was && is:
				d.Add = append(d.Add, graph.Edge{U: int32(u), V: v})
			}
		}
	}
	return d
}

// forEachEdge visits every undirected edge of g once, as (lower, higher)
// endpoints in adjacency order.
func forEachEdge(g *graph.CSR, visit func(u, v int32)) {
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			if int(v) > u {
				visit(int32(u), v)
			}
		}
	}
}

func checkShape(epochs, epochLen int) error {
	if epochs < 0 || epochLen <= 0 {
		return fmt.Errorf("dyn: need epochs >= 0 and epochLen > 0, got %d and %d", epochs, epochLen)
	}
	return nil
}
