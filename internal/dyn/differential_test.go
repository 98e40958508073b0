package dyn_test

// Differential epoch-boundary checks: on churn, fault, and partition/heal
// schedules the engine must produce the same transcript (trace.Hasher
// digests of the per-node act/deliver streams) and Result as a dense
// reference loop that re-reads the schedule every step; a schedule must
// change the transcript; and a schedule whose node count disagrees with the
// graph is rejected.

import (
	"testing"

	"repro/internal/dyn"
	"repro/internal/graph"
	"repro/internal/radio"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// gossipNode is a protocol whose behavior is sensitive to every delivery:
// it transmits a rumor with probability decaying in the number of times it
// has heard anything, so a single misdelivered step anywhere diverges the
// whole downstream transcript.
type gossipNode struct {
	rng    *xrand.RNG
	heard  int
	has    bool
	step   int
	budget int
}

func (g *gossipNode) Act(step int) radio.Action {
	if g.has && g.rng.Bernoulli(1/float64(2+g.heard)) {
		return radio.Transmit(int64(1))
	}
	return radio.Listen()
}

func (g *gossipNode) Deliver(step int, msg radio.Message) {
	g.step = step + 1
	if msg != nil {
		g.heard++
		g.has = true
	}
}

func (g *gossipNode) Done() bool { return g.step >= g.budget }

func gridGraph(rows, cols int) *graph.Graph {
	g := graph.New(rows * cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				g.AddEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				g.AddEdge(id(r, c), id(r+1, c))
			}
		}
	}
	return g
}

func schedules(t *testing.T) map[string]*dyn.Schedule {
	t.Helper()
	base := gridGraph(8, 8)
	churn, err := dyn.Churn(base, 6, 20, 0.25, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	faults, err := dyn.EdgeFaults(base, 6, 20, 0.3, xrand.New(6))
	if err != nil {
		t.Fatal(err)
	}
	side := make([]bool, base.N())
	for v := range side {
		side[v] = v >= base.N()/2
	}
	ph, err := dyn.PartitionHeal(base, side, 30, 80)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*dyn.Schedule{"churn": churn, "faults": faults, "partition-heal": ph}
}

// referenceDynamicRun is the dense reference loop for dynamic runs, written
// apart from the engine: every step it asks the schedule for the epoch in
// force (no boundary tracking), polls every not-yet-done node in index
// order, counts each listener's transmitting neighbors by brute force over
// that epoch's adjacency, and delivers the message (exactly one transmitting
// neighbor) or silence.
func referenceDynamicRun(sched *dyn.Schedule, factory radio.Factory, n, maxSteps int, seed uint64) radio.Result {
	root := xrand.New(seed)
	nodes := make([]radio.Protocol, n)
	for v := range nodes {
		nodes[v] = factory(radio.NodeInfo{Index: v, N: n, RNG: root.Split(uint64(v))})
	}
	live := make([]bool, n)
	transmitting := make([]bool, n)
	payload := make([]radio.Message, n)
	var res radio.Result
	for step := 0; step < maxSteps; step++ {
		csr, _ := sched.EpochAt(step)
		anyLive := false
		for v, p := range nodes {
			live[v] = !p.Done()
			anyLive = anyLive || live[v]
			transmitting[v], payload[v] = false, nil
			if !live[v] {
				continue
			}
			if a := p.Act(step); a.Transmit {
				transmitting[v], payload[v] = true, a.Msg
				res.Transmissions++
			}
		}
		if !anyLive {
			res.AllDone = true
			break
		}
		for v, p := range nodes {
			var msg radio.Message
			if !transmitting[v] {
				count, from := 0, -1
				for _, u := range csr.Neighbors(v) {
					if transmitting[u] {
						count++
						from = int(u)
					}
				}
				switch {
				case count == 1:
					msg = payload[from]
					res.Deliveries++
				case count >= 2:
					res.Collisions++
				}
			}
			if live[v] {
				p.Deliver(step, msg)
			}
		}
		res.Steps = step + 1
	}
	if !res.AllDone {
		res.AllDone = true
		for _, p := range nodes {
			res.AllDone = res.AllDone && p.Done()
		}
	}
	return res
}

// TestEngineDifferentialAcrossEpochs runs the same dynamic gossip workload
// on the engine and on referenceDynamicRun, asserting digest- and
// Result-identical runs across every epoch change.
func TestEngineDifferentialAcrossEpochs(t *testing.T) {
	const steps = 160
	base := gridGraph(8, 8)
	factory := func(info radio.NodeInfo) radio.Protocol {
		return &gossipNode{rng: info.RNG, has: info.Index == 0, budget: steps}
	}
	for name, sched := range schedules(t) {
		t.Run(name, func(t *testing.T) {
			eng := trace.NewHasher()
			gotRes, err := radio.Run(base, eng.Wrap(factory), radio.Options{MaxSteps: steps, Seed: 42, Topology: sched})
			if err != nil {
				t.Fatal(err)
			}
			ref := trace.NewHasher()
			wantRes := referenceDynamicRun(sched, ref.Wrap(factory), base.N(), steps, 42)
			if eng.Sum() != ref.Sum() {
				t.Errorf("engine digest %#x differs from reference %#x", eng.Sum(), ref.Sum())
			}
			if gotRes != wantRes {
				t.Errorf("engine result %+v differs from reference %+v", gotRes, wantRes)
			}
		})
	}
}

// TestDynamicRunDiffersFromStatic is the sanity check that the Topology hook
// actually changes delivery: the same workload with and without the churn
// schedule must produce different transcripts (churn at 25% on a grid is
// overwhelmingly unlikely to be invisible for 160 steps).
func TestDynamicRunDiffersFromStatic(t *testing.T) {
	const steps = 160
	base := gridGraph(8, 8)
	sched := schedules(t)["churn"]
	run := func(topo radio.Topology) uint64 {
		h := trace.NewHasher()
		factory := func(info radio.NodeInfo) radio.Protocol {
			return &gossipNode{rng: info.RNG, has: info.Index == 0, budget: steps}
		}
		if _, err := radio.Run(base, h.Wrap(factory), radio.Options{MaxSteps: steps, Seed: 42, Topology: topo}); err != nil {
			t.Fatal(err)
		}
		return h.Sum()
	}
	if run(sched) == run(nil) {
		t.Fatal("churn schedule did not change the transcript")
	}
}

// TestTopologyNodeCountMismatch asserts the engine rejects a topology whose
// epoch-0 node count disagrees with the protocol graph.
func TestTopologyNodeCountMismatch(t *testing.T) {
	small := gridGraph(3, 3)
	sched, err := dyn.New(small, nil)
	if err != nil {
		t.Fatal(err)
	}
	factory := func(info radio.NodeInfo) radio.Protocol {
		return &gossipNode{rng: info.RNG, budget: 4}
	}
	_, err = radio.Run(gridGraph(4, 4), factory, radio.Options{MaxSteps: 4, Seed: 1, Topology: sched})
	if err == nil {
		t.Fatal("want node-count mismatch error")
	}
}
