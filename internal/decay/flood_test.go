package decay

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/dyn"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/phy"
	"repro/internal/radio"
	"repro/internal/xrand"
)

// floodOracle is the per-node form of Flood, kept as the oracle the
// population is differentially tested against: one FloodNode Protocol per
// node, run through the engine's Factory adapter, with the run state they
// share behind one pointer. Completion is the harness's, as it was before
// the population recorded it: after every step, if all n nodes hold the
// target, record the step count and stop.
type floodOracle struct {
	levels   int
	budget   int
	target   int64
	sources  map[int]int64
	stop     bool
	informed int
}

func newFloodOracle(levels, budget int, sources map[int]int64) *floodOracle {
	target := int64(math.MinInt64)
	for _, r := range sources {
		target = max(target, r)
	}
	return &floodOracle{levels: max(levels, 1), budget: budget, target: target, sources: sources}
}

// Node is the oracle's radio.Factory.
func (f *floodOracle) Node(info radio.NodeInfo) radio.Protocol {
	nd := &FloodNode{run: f, rng: info.RNG}
	if r, ok := f.sources[info.Index]; ok {
		nd.rank = r
		f.count(nd, +1)
	}
	return nd
}

// count adds delta to the informed count when nd holds the target.
func (f *floodOracle) count(nd *FloodNode, delta int) {
	if r, ok := nd.Rank(); ok && r == f.target {
		f.informed += delta
	}
}

// FloodNode is one node of the oracle flood.
type FloodNode struct {
	run  *floodOracle
	rng  *xrand.RNG
	rank radio.Message // the boxed int64 best rank, nil until one is held
	step int
}

func (d *FloodNode) Act(step int) radio.Action {
	if d.rank != nil && d.rng.Bernoulli(Pow2Neg(step%d.run.levels+1)) {
		return radio.Transmit(d.rank)
	}
	return radio.Listen()
}

func (d *FloodNode) Deliver(step int, msg radio.Message) {
	d.step = step + 1
	if msg == nil {
		return
	}
	if r, ok := msg.(int64); ok && (d.rank == nil || r > d.rank.(int64)) {
		if r == d.run.target {
			d.run.informed++
		}
		d.rank = msg
	}
}

func (d *FloodNode) Done() bool { return d.run.stop || d.step >= d.run.budget }

func (d *FloodNode) Rank() (int64, bool) {
	r, ok := d.rank.(int64)
	return r, ok
}

func (d *FloodNode) SnapshotState() []byte {
	best, has := d.Rank()
	buf := binary.LittleEndian.AppendUint64(make([]byte, 0, floodState), uint64(best))
	buf = append(buf, 0)
	if has {
		buf[8] = 1
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(d.step))
	return binary.LittleEndian.AppendUint64(buf, d.rng.State())
}

func (d *FloodNode) RestoreState(data []byte) error {
	if len(data) != floodState {
		return fmt.Errorf("flood node state is %d bytes, want %d", len(data), floodState)
	}
	d.run.count(d, -1)
	d.rank = nil
	if data[8] == 1 {
		d.rank = int64(binary.LittleEndian.Uint64(data[0:8]))
	}
	d.step = int(binary.LittleEndian.Uint64(data[9:17]))
	d.rng.SetState(binary.LittleEndian.Uint64(data[17:25]))
	d.run.count(d, +1)
	return nil
}

// floodCase is one differential scenario: a static snapshot or a dynamic
// schedule, a fresh PHY model per run, the flood's parameters, and the
// engine seed.
type floodCase struct {
	csr     *graph.CSR     // static topology, or nil
	topo    radio.Topology // dynamic topology when csr is nil
	n       int
	model   func() phy.Model // nil: the engine's default Collision
	sources map[int]int64
	levels  int
	budget  int
	seed    uint64
}

// floodTrace is everything a flood run exposes: the step-stats stream,
// the informed count and a digest of every node's rank after each step,
// the Result, the completion step, every checkpoint, and the final ranks.
type floodTrace struct {
	steps    []radio.StepStats
	informed []int
	digests  []uint64
	res      radio.Result
	complete int
	ckpts    []*radio.Checkpoint
	ranks    []int64
	holds    []bool
}

// rankDigest folds every node's (has, rank) pair into one word.
func rankDigest(n int, rank func(v int) (int64, bool)) uint64 {
	h := uint64(14695981039346656037)
	for v := 0; v < n; v++ {
		r, ok := rank(v)
		if ok {
			h = (h ^ uint64(r)) * 1099511628211
		}
		h = (h ^ uint64(v)<<1 ^ b2u(ok)) * 1099511628211
	}
	return h
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func (c floodCase) options(tr *floodTrace, resume *radio.Checkpoint) radio.Options {
	opts := radio.Options{MaxSteps: c.budget, Seed: c.seed, Topology: c.topo, Resume: resume}
	if c.model != nil {
		opts.PHY = c.model()
	}
	if c.csr == nil {
		opts.Checkpoint = func(cp *radio.Checkpoint) error {
			tr.ckpts = append(tr.ckpts, cp)
			return nil
		}
	}
	return opts
}

// runOracle runs the per-node oracle through the Factory adapter. stopped
// marks a resume past the completion step, as runFlood's harness does.
func (c floodCase) runOracle(t *testing.T, resume *radio.Checkpoint, stopped bool) floodTrace {
	t.Helper()
	fl := newFloodOracle(c.levels, c.budget, c.sources)
	fl.stop = stopped
	nodes := make([]*FloodNode, c.n)
	factory := func(info radio.NodeInfo) radio.Protocol {
		nd := fl.Node(info).(*FloodNode)
		nodes[info.Index] = nd
		return nd
	}
	rank := func(v int) (int64, bool) { return nodes[v].Rank() }
	tr := floodTrace{complete: -1}
	opts := c.options(&tr, resume)
	opts.OnStep = func(st radio.StepStats) {
		tr.steps = append(tr.steps, st)
		tr.informed = append(tr.informed, fl.informed)
		tr.digests = append(tr.digests, rankDigest(c.n, rank))
		if tr.complete < 0 && fl.informed == c.n {
			tr.complete = st.Step + 1
			fl.stop = true
		}
	}
	var err error
	if c.csr != nil {
		tr.res, err = radio.RunCSR(c.csr, factory, opts)
	} else {
		tr.res, err = radio.Run(c.topo.(*dyn.Schedule).CSR(0).Graph(), factory, opts)
	}
	if err != nil {
		t.Fatal(err)
	}
	tr.finish(c.n, rank)
	return tr
}

// runPopulation runs the Flood population on the same scenario.
func (c floodCase) runPopulation(t *testing.T, resume *radio.Checkpoint, stopped bool) floodTrace {
	t.Helper()
	fl := NewFlood(c.levels, c.budget, c.sources)
	if stopped {
		fl.Stop()
	}
	tr := floodTrace{}
	opts := c.options(&tr, resume)
	opts.OnStep = func(st radio.StepStats) {
		tr.steps = append(tr.steps, st)
		tr.informed = append(tr.informed, fl.Informed())
		tr.digests = append(tr.digests, rankDigest(c.n, fl.Rank))
	}
	var err error
	tr.res, err = radio.RunPopulation(c.csr, fl, opts)
	if err != nil {
		t.Fatal(err)
	}
	tr.complete = fl.Complete()
	tr.finish(c.n, fl.Rank)
	return tr
}

func (tr *floodTrace) finish(n int, rank func(v int) (int64, bool)) {
	tr.ranks, tr.holds = make([]int64, n), make([]bool, n)
	for v := range tr.ranks {
		tr.ranks[v], tr.holds[v] = rank(v)
	}
}

// diffTraces reports the first difference between two flood traces.
func diffTraces(got, want floodTrace) error {
	if got.res != want.res {
		return fmt.Errorf("result %+v, oracle %+v", got.res, want.res)
	}
	if got.complete != want.complete {
		return fmt.Errorf("complete %d, oracle %d", got.complete, want.complete)
	}
	if len(got.steps) != len(want.steps) {
		return fmt.Errorf("%d step records, oracle %d", len(got.steps), len(want.steps))
	}
	for i := range want.steps {
		switch {
		case got.steps[i] != want.steps[i]:
			return fmt.Errorf("step stats %+v, oracle %+v", got.steps[i], want.steps[i])
		case got.informed[i] != want.informed[i]:
			return fmt.Errorf("step %d: informed %d, oracle %d", want.steps[i].Step, got.informed[i], want.informed[i])
		case got.digests[i] != want.digests[i]:
			return fmt.Errorf("step %d: node ranks differ from the oracle's", want.steps[i].Step)
		}
	}
	for v := range want.ranks {
		if got.ranks[v] != want.ranks[v] || got.holds[v] != want.holds[v] {
			return fmt.Errorf("node %d: rank (%d,%v), oracle (%d,%v)", v, got.ranks[v], got.holds[v], want.ranks[v], want.holds[v])
		}
	}
	if len(got.ckpts) != len(want.ckpts) {
		return fmt.Errorf("%d checkpoints, oracle %d", len(got.ckpts), len(want.ckpts))
	}
	for i, w := range want.ckpts {
		g := got.ckpts[i]
		if g.Step != w.Step || g.Partial != w.Partial || fmt.Sprint(g.Active) != fmt.Sprint(w.Active) {
			return fmt.Errorf("checkpoint %d: step %d partial %+v, oracle step %d partial %+v", i, g.Step, g.Partial, w.Step, w.Partial)
		}
		for v := range w.Nodes {
			if !bytes.Equal(g.Nodes[v], w.Nodes[v]) {
				return fmt.Errorf("checkpoint at step %d: node %d blob %x, oracle %x", w.Step, v, g.Nodes[v], w.Nodes[v])
			}
		}
	}
	return nil
}

// checkAgainstOracle runs c both ways from the start and, for dynamic
// cases, resumes both from the oracle's middle and last checkpoints (so
// the population restores blobs the per-node form wrote; the last one may
// follow completion, which resumes stopped), comparing everything each run
// exposes. It returns the oracle's uninterrupted run.
func checkAgainstOracle(t *testing.T, c floodCase) floodTrace {
	t.Helper()
	want := c.runOracle(t, nil, false)
	if err := diffTraces(c.runPopulation(t, nil, false), want); err != nil {
		t.Fatal(err)
	}
	if len(want.ckpts) == 0 {
		return want
	}
	for _, cp := range []*radio.Checkpoint{want.ckpts[len(want.ckpts)/2], want.ckpts[len(want.ckpts)-1]} {
		stopped := want.complete >= 0 && cp.Step >= want.complete
		rwant := c.runOracle(t, cp, stopped)
		if err := diffTraces(c.runPopulation(t, cp, stopped), rwant); err != nil {
			t.Fatalf("resumed at step %d: %v", cp.Step, err)
		}
		if !stopped && rwant.res != want.res {
			t.Fatalf("resumed oracle result %+v, uninterrupted %+v", rwant.res, want.res)
		}
	}
	return want
}

// TestFloodPopulationMatchesOracle is the differential test of the Flood
// population against the per-node oracle through the Factory adapter:
// static Collision with several sources (and a source past the last node,
// which only raises the target), CollisionCD markers, SINR capture,
// dyn.Churn epochs with checkpoints and a mid-run resume, and a budget
// that runs out before completion.
func TestFloodPopulationMatchesOracle(t *testing.T) {
	udg, _, err := gen.BuildCSR("udg", 300, 5)
	if err != nil {
		t.Fatal(err)
	}
	pts := gen.UniformPoints(120, 2, 5, xrand.New(8))
	sinrParams := phy.SINRParams{}
	sinrCSR := gen.SINRConnectivity(pts, sinrParams).Freeze()
	grid := gen.Grid(10, 10)
	churn, err := dyn.Churn(grid, 20, 6, 0.3, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	faults, err := dyn.EdgeFaults(grid, 16, 5, 0.4, xrand.New(4))
	if err != nil {
		t.Fatal(err)
	}
	// One-step epochs put a boundary, and so a checkpoint, right after
	// the completing step: resuming from it runs stopped.
	steady, err := dyn.Churn(gen.Grid(5, 5), 200, 1, 0.05, xrand.New(6))
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]floodCase{
		"collision-multi-source": {csr: udg, n: 300, sources: map[int]int64{3: 40, 150: 900, 299: 7}, levels: 9, budget: 3000, seed: 1},
		"collision-short-budget": {csr: udg, n: 300, sources: map[int]int64{0: 1}, levels: 9, budget: 25, seed: 2},
		"collision-absent-top":   {csr: udg, n: 300, sources: map[int]int64{10: 5, 400: 6}, levels: 9, budget: 200, seed: 3},
		"cd-markers": {csr: udg, n: 300, sources: map[int]int64{7: 1 << 40, 200: 1 << 41}, levels: 9, budget: 3000, seed: 4,
			model: func() phy.Model { return phy.NewCollisionCD() }},
		"sinr": {csr: sinrCSR, n: 120, sources: map[int]int64{0: 1, 60: 2}, levels: 7, budget: 2000, seed: 5,
			model: func() phy.Model {
				m, err := phy.NewSINR(pts, sinrParams)
				if err != nil {
					t.Fatal(err)
				}
				return m
			}},
		"churn":          {topo: churn, n: 100, sources: map[int]int64{0: 3, 99: 8, 50: 1}, levels: 7, budget: 120, seed: 6},
		"churn-cd":       {topo: churn, n: 100, sources: map[int]int64{45: 2}, levels: 7, budget: 120, seed: 7, model: func() phy.Model { return phy.NewCollisionCD() }},
		"edge-faults":    {topo: faults, n: 100, sources: map[int]int64{0: 1}, levels: 7, budget: 80, seed: 8},
		"epoch-per-step": {topo: steady, n: 25, sources: map[int]int64{12: 1}, levels: 5, budget: 200, seed: 9},
	}
	completes := map[string]bool{"collision-multi-source": true, "cd-markers": true, "sinr": true, "churn-cd": true, "epoch-per-step": true}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			want := checkAgainstOracle(t, c)
			if (want.complete >= 0) != completes[name] {
				t.Fatalf("oracle completion step %d: the case no longer covers what it is named for", want.complete)
			}
			if c.topo != nil && len(want.ckpts) < 2 {
				t.Fatalf("%d checkpoints: no mid-run resume exercised", len(want.ckpts))
			}
			if last := len(want.ckpts) - 1; name == "epoch-per-step" && want.ckpts[last].Step != want.complete {
				t.Fatalf("last checkpoint at step %d, completion at %d: the stopped resume is not exercised", want.ckpts[last].Step, want.complete)
			}
		})
	}
}

// FuzzFloodPopulationVsOracle drives the differential on random small
// graphs, seeds, source sets and collision-detection settings, statically
// and under a churn schedule (with a mid-run resume).
func FuzzFloodPopulationVsOracle(f *testing.F) {
	f.Add(uint64(1), uint8(20), uint8(30), uint8(3), false, false)
	f.Add(uint64(2), uint8(40), uint8(10), uint8(1), true, false)
	f.Add(uint64(3), uint8(30), uint8(50), uint8(4), true, true)
	f.Add(uint64(4), uint8(12), uint8(90), uint8(2), false, true)
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, density, nSources uint8, cd, churn bool) {
		rng := xrand.New(seed)
		n := int(nRaw%48) + 2
		g := gen.GNP(n, float64(density%100+1)/100, rng)
		sources := map[int]int64{}
		for i := 0; i < int(nSources%5)+1; i++ {
			sources[rng.Intn(n)] = int64(rng.Intn(7)) - 3
		}
		c := floodCase{n: n, sources: sources, levels: rng.Intn(7) + 1, budget: rng.Intn(150) + 1, seed: rng.Uint64()}
		if cd {
			c.model = func() phy.Model { return phy.NewCollisionCD() }
		}
		if churn {
			sched, err := dyn.Churn(g, 8, rng.Intn(10)+2, 0.3, rng)
			if err != nil {
				t.Fatal(err)
			}
			c.topo = sched
		} else {
			c.csr = g.Freeze()
		}
		checkAgainstOracle(t, c)
	})
}

// TestFloodStepZeroAlloc extends the engine's zero-alloc step-loop contract
// to the flood population: total allocations of a run must not grow with
// its length.
func TestFloodStepZeroAlloc(t *testing.T) {
	csr := gen.Grid(16, 16).Freeze()
	runSteps := func(steps int) {
		fl := NewFlood(9, steps, map[int]int64{0: 1 << 40, 255: 1 << 41})
		if _, err := radio.RunPopulation(csr, fl, radio.Options{MaxSteps: steps, Seed: 7, PHY: phy.NewCollisionCD()}); err != nil {
			t.Fatal(err)
		}
		if fl.Informed() == 0 {
			t.Fatal("target never counted")
		}
	}
	short := testing.AllocsPerRun(5, func() { runSteps(64) })
	long := testing.AllocsPerRun(5, func() { runSteps(320) })
	if long > short {
		t.Fatalf("flood step loop allocates: %.1f allocs over 256 extra steps (%.1f vs %.1f per run)", long-short, long, short)
	}
}

// TestFloodSnapshotRoundTrip pins the 25-byte node snapshot (the format
// serve journals and prefix-cache entries hold), the informed recount on
// restore, and the refusal of blobs that disagree on the run's clock.
func TestFloodSnapshotRoundTrip(t *testing.T) {
	fl := NewFlood(4, 100, map[int]int64{0: 9})
	if _, err := radio.RunPopulation(gen.Path(3).Freeze(), fl, radio.Options{MaxSteps: 1, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	src, idle := fl.SnapshotNode(0), fl.SnapshotNode(2)
	if len(src) != 25 || src[8] != 1 || src[0] != 9 || idle[8] != 0 || idle[9] != 1 || src[9] != 1 {
		t.Fatalf("snapshot layout: source %v, idle %v", src, idle)
	}
	if err := fl.Restore([][]byte{src, idle, src}); err != nil {
		t.Fatal(err)
	}
	if fl.Informed() != 2 {
		t.Fatalf("restoring two informed states: count %d, want 2", fl.Informed())
	}
	if err := fl.Restore([][]byte{idle, idle, idle}); err != nil {
		t.Fatal(err)
	}
	if fl.Informed() != 0 {
		t.Fatalf("restoring idle states: count %d, want 0", fl.Informed())
	}
	if r, ok := fl.Rank(0); ok || r != 0 {
		t.Fatalf("restored idle node holds rank %d", r)
	}
	if err := fl.Restore([][]byte{src, idle, src[:24]}); err == nil {
		t.Fatal("short state accepted")
	}
	late := bytes.Clone(idle)
	late[9] = 2
	if err := fl.Restore([][]byte{src, late, idle}); err == nil || !strings.Contains(err.Error(), "step") {
		t.Fatalf("blobs at different steps accepted: %v", err)
	}
}

// TestFloodRefusesWakeAt pins that the population reports staggered
// wake-up, which its shared clock cannot honour, instead of ignoring it.
func TestFloodRefusesWakeAt(t *testing.T) {
	fl := NewFlood(4, 10, map[int]int64{0: 1})
	_, err := radio.RunPopulation(gen.Path(3).Freeze(), fl, radio.Options{MaxSteps: 10, WakeAt: []int{0, 1, 2}})
	if err == nil || !strings.Contains(err.Error(), "WakeAt") {
		t.Fatalf("WakeAt accepted: %v", err)
	}
}
