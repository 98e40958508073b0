// Package dyn builds deterministic dynamic-topology schedules for the radio
// engines: epochs of node churn, edge fault injection, partition/heal
// events, and mobility-driven rewiring over a fixed node set.
//
// A Schedule is an immutable sequence of topology epochs. Epoch i covers the
// step interval [starts[i], starts[i+1]) and holds one frozen CSR snapshot;
// the engines consume it through radio.Options.Topology, querying it only at
// epoch boundaries so the zero-alloc step loop is untouched between them.
// Construction is the only place topologies change: the base graph is
// frozen once and each epoch's snapshot is built from the previous one by
// graph.CSR.WithDelta (never per step).
//
// Determinism contract: every schedule is a pure function of its inputs —
// the base graph and, for the randomized generators, an xrand seed. Trials
// in internal/exp derive that seed from the trial seed, so dynamic
// experiments inherit the suite's byte-identical-output guarantee at any
// parallelism level, and tests can replay the same schedule through the
// engine any number of times. A Schedule is immutable after construction
// and safe for concurrent readers (including concurrent engine runs sharing
// one Schedule).
package dyn

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/phy"
)

// Delta is one epoch's edge changes relative to the previous epoch:
// removals are applied before additions.
type Delta struct {
	Remove []graph.Edge
	Add    []graph.Edge
}

// empty reports whether the delta changes nothing.
func (d Delta) empty() bool { return len(d.Remove) == 0 && len(d.Add) == 0 }

// EpochSpec declares one epoch for New: the step at which it takes effect
// and its delta relative to the previous epoch.
type EpochSpec struct {
	Start int
	Delta Delta
}

// Schedule is an immutable epoch sequence implementing radio.Topology —
// and, when built with positions attached (FromGraphsWithPositions, the
// geometric generators), phy.PositionSource, so geometric reception models
// (phy.SINR) follow the same epochs the topology does.
type Schedule struct {
	starts    []int         // ascending; starts[0] == 0
	csrs      []*graph.CSR  // snapshot in force from starts[i]
	deltas    []Delta       // deltas[i] transforms epoch i-1 into epoch i; deltas[0] is empty
	positions [][]phy.Point // per-epoch node positions; nil for non-geometric schedules
}

// New builds a schedule: epoch 0 is the base graph as given, and each spec
// opens a new epoch at spec.Start (strictly increasing, all > 0) by applying
// its delta to the previous epoch's topology. The schedule keeps its own
// copy of the base adjacency, so the caller's graph is never mutated and
// later mutations of it do not affect the schedule.
func New(base *graph.Graph, specs []EpochSpec) (*Schedule, error) {
	if base == nil || base.N() == 0 {
		return nil, fmt.Errorf("dyn: empty base graph")
	}
	csr := base.Freeze().WithDelta(nil, nil) // a private flat copy
	s := &Schedule{
		starts: []int{0},
		csrs:   []*graph.CSR{csr},
		deltas: []Delta{{}},
	}
	prev := 0
	for _, spec := range specs {
		if spec.Start <= prev {
			return nil, fmt.Errorf("dyn: epoch starts must be strictly increasing and positive, got %d after %d", spec.Start, prev)
		}
		prev = spec.Start
		csr = csr.WithDelta(spec.Delta.Remove, spec.Delta.Add)
		s.starts = append(s.starts, spec.Start)
		s.csrs = append(s.csrs, csr)
		s.deltas = append(s.deltas, spec.Delta)
	}
	return s, nil
}

// EpochAt implements radio.Topology: the snapshot in force at step and the
// start of the following epoch (-1 when step falls in the last epoch).
// Steps before 0 are treated as 0. O(log #epochs); the engines call it once
// per epoch, not per step.
func (s *Schedule) EpochAt(step int) (*graph.CSR, int) {
	i := sort.SearchInts(s.starts, step+1) - 1
	if i < 0 {
		i = 0
	}
	next := -1
	if i+1 < len(s.starts) {
		next = s.starts[i+1]
	}
	return s.csrs[i], next
}

// N returns the (fixed) node count.
func (s *Schedule) N() int { return s.csrs[0].N() }

// Epochs returns the number of epochs (≥ 1).
func (s *Schedule) Epochs() int { return len(s.starts) }

// Start returns the first step of epoch i.
func (s *Schedule) Start(i int) int { return s.starts[i] }

// CSR returns epoch i's frozen snapshot.
func (s *Schedule) CSR(i int) *graph.CSR { return s.csrs[i] }

// Delta returns the edge delta that opened epoch i (empty for epoch 0).
// The returned slices are shared and must not be modified.
func (s *Schedule) Delta(i int) Delta { return s.deltas[i] }

// LastStart returns the first step of the final epoch.
func (s *Schedule) LastStart() int { return s.starts[len(s.starts)-1] }

// diffDelta computes the delta transforming prev into next (same vertex
// count): edges of prev missing from next are removed, edges of next missing
// from prev are added. Both scans walk each graph's adjacency once, emitting
// each undirected edge for its lower endpoint, so the delta order — and
// therefore the rebuilt epoch's CSR — is deterministic.
func diffDelta(prev, next *graph.Graph) Delta {
	var d Delta
	for v := 0; v < prev.N(); v++ {
		for _, w := range prev.Neighbors(v) {
			if int(w) > v && !next.HasEdge(v, int(w)) {
				d.Remove = append(d.Remove, graph.Edge{U: int32(v), V: w})
			}
		}
	}
	for v := 0; v < next.N(); v++ {
		for _, w := range next.Neighbors(v) {
			if int(w) > v && !prev.HasEdge(v, int(w)) {
				d.Add = append(d.Add, graph.Edge{U: int32(v), V: w})
			}
		}
	}
	return d
}

// FromGraphs builds a schedule from explicit per-epoch graphs: graphs[i] is
// the topology from step i*epochLen. All graphs must share one node count.
// Consecutive duplicates collapse into longer epochs.
func FromGraphs(epochLen int, graphs []*graph.Graph) (*Schedule, error) {
	return fromGraphs(epochLen, graphs, nil)
}

// FromGraphsWithPositions additionally attaches positions[i] — the node
// positions the geometry of graphs[i] was derived from — to each epoch, so
// the schedule implements phy.PositionSource and geometric reception models
// can run over it (mobile SINR). Unlike FromGraphs, epochs whose graph is
// unchanged are NOT collapsed: motion too slow to rewire the connectivity
// graph still moves the interference geometry, which a SINR run observes.
// The position slices are retained as given and must not be mutated by the
// caller afterwards (gen.MobileUDG hands over per-epoch clones).
func FromGraphsWithPositions(epochLen int, graphs []*graph.Graph, positions [][]phy.Point) (*Schedule, error) {
	if len(positions) != len(graphs) {
		return nil, fmt.Errorf("dyn: %d position sets for %d epoch graphs", len(positions), len(graphs))
	}
	for i, pts := range positions {
		if len(pts) != graphs[i].N() {
			return nil, fmt.Errorf("dyn: epoch %d has %d positions for %d nodes", i, len(pts), graphs[i].N())
		}
	}
	return fromGraphs(epochLen, graphs, positions)
}

func fromGraphs(epochLen int, graphs []*graph.Graph, positions [][]phy.Point) (*Schedule, error) {
	if len(graphs) == 0 {
		return nil, fmt.Errorf("dyn: no epoch graphs")
	}
	if epochLen <= 0 {
		return nil, fmt.Errorf("dyn: epochLen must be positive, got %d", epochLen)
	}
	n := graphs[0].N()
	var specs []EpochSpec
	kept := []int{0} // graph indices retained as epochs
	for i := 1; i < len(graphs); i++ {
		if graphs[i].N() != n {
			return nil, fmt.Errorf("dyn: epoch %d has %d nodes, epoch 0 has %d", i, graphs[i].N(), n)
		}
		d := diffDelta(graphs[i-1], graphs[i])
		if d.empty() && (positions == nil || samePositions(positions[kept[len(kept)-1]], positions[i])) {
			// Nothing observable changed: no edge rewired and (for geometric
			// schedules) no node moved, so the epoch collapses into the
			// previous one. Motion below the rewiring threshold does NOT
			// collapse — it still shifts the interference geometry a SINR
			// model observes.
			continue
		}
		specs = append(specs, EpochSpec{Start: i * epochLen, Delta: d})
		kept = append(kept, i)
	}
	s, err := New(graphs[0], specs)
	if err != nil {
		return nil, err
	}
	if positions != nil {
		s.positions = make([][]phy.Point, len(kept))
		for j, i := range kept {
			s.positions[j] = positions[i]
		}
	}
	return s, nil
}

// samePositions reports whether two epoch position sets are identical.
func samePositions(a, b []phy.Point) bool {
	for i := range a {
		for k := range a[i] {
			if a[i][k] != b[i][k] {
				return false
			}
		}
	}
	return true
}

// PositionsAt implements phy.PositionSource: the node positions in force at
// step, or nil when the schedule carries no geometry. Pure in step, like
// EpochAt.
func (s *Schedule) PositionsAt(step int) []phy.Point {
	if s.positions == nil {
		return nil
	}
	i := sort.SearchInts(s.starts, step+1) - 1
	if i < 0 {
		i = 0
	}
	return s.positions[i]
}
