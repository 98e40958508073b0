package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/decay"
	"repro/internal/dyn"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/phy"
	"repro/internal/radio"
	"repro/internal/xrand"
)

// This file implements the -engine-bench mode: it runs the simulator-engine
// micro-benchmarks through testing.Benchmark and writes a machine-readable
// BENCH_engine.json so the perf trajectory is tracked across changes. The
// seed-baseline block records the dense rows measured on the seed's
// dense-scan engine for comparison.

// EngineBenchResult is one benchmark row of BENCH_engine.json. Every row's
// timed region is a steady-state step loop with no construction inside it,
// so allocs/op is deterministic and AllocExact is always set: the
// regression gate compares allocs/op exactly — any increase over the
// committed baseline fails, with no slack.
type EngineBenchResult struct {
	Name            string  `json:"name"`
	Nodes           int     `json:"nodes"`
	StepsPerOp      int     `json:"steps_per_op"`
	NsPerOp         float64 `json:"ns_per_op"`
	AllocsPerOp     int64   `json:"allocs_per_op"`
	BytesPerOp      int64   `json:"bytes_per_op"`
	NodeStepsPerSec float64 `json:"node_steps_per_sec"`
	AllocExact      bool    `json:"alloc_exact,omitempty"`
	// EngineBytes is the resident heap footprint of the fully constructed
	// run — topology snapshot, deployment geometry, PHY model, and engine
	// node state — measured after a GC at the first step of a live run
	// (see measureFootprint). Zero on rows that don't measure it.
	EngineBytes int64 `json:"engine_bytes,omitempty"`
	// BytesPerNode is EngineBytes / Nodes, the scale metric the memory gate
	// compares across reports.
	BytesPerNode float64 `json:"bytes_per_node,omitempty"`
}

// EngineBenchReport is the BENCH_engine.json document.
type EngineBenchReport struct {
	GeneratedBy  string              `json:"generated_by"`
	GoVersion    string              `json:"go_version"`
	GoMaxProcs   int                 `json:"gomaxprocs"`
	NumCPU       int                 `json:"num_cpu"`
	Benchmarks   []EngineBenchResult `json:"benchmarks"`
	SeedBaseline []EngineBenchResult `json:"seed_baseline"`
	BaselineNote string              `json:"baseline_note"`
}

// benchPayload is boxed once so protocols don't allocate per transmission.
var benchPayload radio.Message = int64(7)

// benchNode transmits a coin flip per step; dead nodes retire at step 0.
type benchNode struct {
	rng    *xrand.RNG
	step   int
	budget int
	dead   bool
}

func (c *benchNode) Act(step int) radio.Action {
	if c.rng.Bernoulli(0.5) {
		return radio.Transmit(benchPayload)
	}
	return radio.Listen()
}
func (c *benchNode) Deliver(step int, msg radio.Message) { c.step = step + 1 }
func (c *benchNode) Done() bool                          { return c.dead || c.step >= c.budget }

// timerArmer restarts the benchmark timer (and its alloc counters) exactly
// once, at the first Act call of a run — the first moment after the engine
// has finished constructing itself. The per-step benches hand the whole run
// to radio.Run, so a b.ResetTimer() placed before the call leaves engine
// construction (node states, CSR views, delivery scratch — thousands of
// one-time allocations at n=4096) inside the timed region, where it divides
// by b.N and masquerades as a handful of per-step allocs/op whenever b.N
// lands small. Act calls run on the benchmark goroutine, so the reset is
// race-free. reset is b.ResetTimer in a benchmark, or the twin gates' window
// clock (timeSteps).
type timerArmer struct {
	reset func()
	armed bool
}

func (a *timerArmer) fire() {
	if !a.armed {
		a.armed = true
		a.reset()
	}
}

// stepLoop is the body of a bench row that the twin gates re-measure: it
// runs steps engine steps and fires arm at the first Act, once setup is
// done, so its caller times only the step loop.
type stepLoop func(steps int, arm *timerArmer) error

// bench adapts the loop to testing.Benchmark: b.N steps, the timer reset at
// the first Act.
func (l stepLoop) bench(b *testing.B) {
	if err := l(b.N, &timerArmer{reset: b.ResetTimer}); err != nil {
		b.Fatal(err)
	}
}

// resetOnFirstAct wraps a node protocol to fire the run's shared armer at
// its first Act. Every node is wrapped (a dynamic schedule may leave any
// particular node inactive at step 0, so no single node can own the reset);
// the wrapper allocations land during construction, outside the measured
// window.
type resetOnFirstAct struct {
	radio.Protocol
	arm *timerArmer
}

func (r *resetOnFirstAct) Act(step int) radio.Action {
	r.arm.fire()
	return r.Protocol.Act(step)
}

// benchSequentialSteps measures one engine step per op on an rows×cols grid
// where the first liveCount nodes stay live (0 = all).
func benchSequentialSteps(rows, cols, liveCount int) func(b *testing.B) {
	return func(b *testing.B) {
		g := gen.Grid(rows, cols)
		g.Freeze()
		arm := &timerArmer{reset: b.ResetTimer}
		factory := func(info radio.NodeInfo) radio.Protocol {
			dead := liveCount > 0 && info.Index >= liveCount
			return &resetOnFirstAct{Protocol: &benchNode{rng: info.RNG, budget: b.N, dead: dead}, arm: arm}
		}
		if _, err := radio.Run(g, factory, radio.Options{MaxSteps: b.N, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchDynSteps measures one engine step per op on an rows×cols grid
// running under a churn schedule (epoch swap every epochLen steps), so the
// dynamic-topology overhead — one comparison per step plus the amortized
// per-epoch CSR swap — is tracked alongside the static rows. A non-nil
// probe arms radio.Options.Probe: the instrumentation-overhead row, which
// checkTwins holds within 3% of the unprobed row measured in the same run,
// pinning the epoch-boundary probe contract's cost (DESIGN.md §10) with a
// host-independent ratio.
func benchDynSteps(rows, cols, epochLen int, probe func(*radio.ProbeSample)) stepLoop {
	return func(steps int, arm *timerArmer) error {
		g := gen.Grid(rows, cols)
		// Size the schedule to cover every step, so every measured step
		// runs on the dynamic path however many steps are asked for
		// (construction is outside the timer).
		sched, err := dyn.Churn(g, steps/epochLen+1, epochLen, 0.2, xrand.New(9))
		if err != nil {
			return err
		}
		factory := func(info radio.NodeInfo) radio.Protocol {
			return &resetOnFirstAct{Protocol: &benchNode{rng: info.RNG, budget: steps}, arm: arm}
		}
		opts := radio.Options{MaxSteps: steps, Seed: 1, Topology: sched, Probe: probe}
		_, err = radio.Run(g, factory, opts)
		return err
	}
}

// benchProbeSink receives probe samples in the obs-enabled bench row. A
// package-level func (not a capturing closure) so arming the probe adds no
// allocations of its own to the measured loop.
var benchProbeSink float64

func benchProbe(s *radio.ProbeSample) { benchProbeSink += s.StepsPerSec }

// sinrNode transmits with probability 1/32 per step — the sparse Decay-like
// regime the SINR grid bucketing is built for.
type sinrNode struct {
	rng    *xrand.RNG
	step   int
	budget int
}

func (c *sinrNode) Act(step int) radio.Action {
	if c.rng.Bernoulli(1.0 / 32) {
		return radio.Transmit(benchPayload)
	}
	return radio.Listen()
}
func (c *sinrNode) Deliver(step int, msg radio.Message) { c.step = step + 1 }
func (c *sinrNode) Done() bool                          { return c.step >= c.budget }

// sinrDeployment draws a uniform UDG deployment at the phy:sinr density
// convention (average degree ~8 at unit decode range). Connectivity is not
// required for the delivery benches, so there is no retry loop — at n=4096
// a degree-8 deployment is usually disconnected, which the engines and the
// SINR model handle like any other geometry.
func sinrDeployment(n int) []gen.Point {
	side := math.Sqrt(float64(n) * math.Pi / 8)
	return gen.UniformPoints(n, 2, side, xrand.New(3))
}

// benchSINRSteps measures one engine step per op under the grid-bucketed
// SINR model (default far-field cutoff) on the canonical phy:sinr
// deployment.
func benchSINRSteps(n int) func(b *testing.B) {
	return func(b *testing.B) {
		pts := sinrDeployment(n)
		model, err := phy.NewSINR(pts, phy.SINRParams{})
		if err != nil {
			b.Fatal(err)
		}
		g := gen.SINRConnectivity(pts, model.Params())
		g.Freeze()
		arm := &timerArmer{reset: b.ResetTimer}
		factory := func(info radio.NodeInfo) radio.Protocol {
			return &resetOnFirstAct{Protocol: &sinrNode{rng: info.RNG, budget: b.N}, arm: arm}
		}
		if _, err := radio.Run(g, factory, radio.Options{MaxSteps: b.N, Seed: 1, PHY: model}); err != nil {
			b.Fatal(err)
		}
	}
}

// hugeTopo lazily builds and caches one streaming-path SINR topology, so a
// huge row and its footprint measurement share a single gen.BuildCSR call —
// at n=10⁶ the build (connectivity retries included) is seconds of wall
// clock and must not repeat per benchmark iteration ramp.
type hugeTopo struct {
	n     int
	once  sync.Once
	csr   *graph.CSR
	pts   []gen.Point
	bytes int64
	err   error
}

func (h *hugeTopo) build() error {
	h.once.Do(func() {
		// The heap baseline is read before anything run-resident exists, so
		// the footprint delta covers the snapshot and geometry too.
		runtime.GC()
		var m0 runtime.MemStats
		runtime.ReadMemStats(&m0)
		h.csr, h.pts, h.err = gen.BuildCSR("phy:sinr", h.n, 3)
		if h.err != nil {
			return
		}
		h.bytes, h.err = h.measureFootprint(m0.HeapAlloc)
	})
	return h.err
}

// memArmer records the run's resident heap once, at the first Act of a live
// run — the first moment after the engine has finished constructing itself —
// as a GC'd HeapAlloc delta against the pre-construction baseline. The
// footprint run fires it on the benchmark goroutine, so no synchronization
// is needed.
type memArmer struct {
	base  uint64
	bytes int64
	armed bool
}

func (a *memArmer) fire() {
	if a.armed {
		return
	}
	a.armed = true
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	if m.HeapAlloc > a.base {
		a.bytes = int64(m.HeapAlloc - a.base)
	}
}

// measureOnFirstAct wraps a node protocol to fire the run's memArmer at its
// first Act (the footprint twin of resetOnFirstAct).
type measureOnFirstAct struct {
	radio.Protocol
	arm *memArmer
}

func (r *measureOnFirstAct) Act(step int) radio.Action {
	r.arm.fire()
	return r.Protocol.Act(step)
}

// measureFootprint runs a short run over the cached topology and
// returns the resident engine bytes: GC'd HeapAlloc at the first step minus
// the pre-construction baseline. Everything a real run keeps live is live at
// that point — packed CSR, positions, the SINR model's SoA arrays and grid,
// and the engine's per-node state — while construction garbage has been
// collected away.
func (h *hugeTopo) measureFootprint(base uint64) (int64, error) {
	model, err := phy.NewSINR(h.pts, phy.SINRParams{})
	if err != nil {
		return 0, err
	}
	arm := &memArmer{base: base}
	factory := func(info radio.NodeInfo) radio.Protocol {
		return &measureOnFirstAct{Protocol: &sinrNode{rng: info.RNG, budget: 16}, arm: arm}
	}
	if _, err := radio.RunCSR(h.csr, factory, radio.Options{MaxSteps: 16, Seed: 1, PHY: model}); err != nil {
		return 0, err
	}
	return arm.bytes, nil
}

// benchStreamSINRSteps measures one engine step per op on the
// million-node path: streaming-built (and, above the threshold, bit-packed)
// CSR through the graph-free radio.RunCSR entry, SINR delivery from the
// cached deployment.
func benchStreamSINRSteps(h *hugeTopo) func(b *testing.B) {
	return func(b *testing.B) {
		if err := h.build(); err != nil {
			b.Fatal(err)
		}
		model, err := phy.NewSINR(h.pts, phy.SINRParams{})
		if err != nil {
			b.Fatal(err)
		}
		arm := &timerArmer{reset: b.ResetTimer}
		factory := func(info radio.NodeInfo) radio.Protocol {
			return &resetOnFirstAct{Protocol: &sinrNode{rng: info.RNG, budget: b.N}, arm: arm}
		}
		if _, err := radio.RunCSR(h.csr, factory, radio.Options{MaxSteps: b.N, Seed: 1, PHY: model}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSINRDenseRef measures one step per op of the pre-PHY internal/sinr
// execution loop (deleted in the PHY refactor), reimplemented here verbatim
// as the regression reference: a dense O(n) act scan plus O(#tx·n) decoding
// — every listener sums every transmitter. The committed report's
// seq_sinr_n4096 row must beat this one; if the grid-bucketed delivery ever
// regresses past the old loop, the gap shows up here.
func benchSINRDenseRef(n int) func(b *testing.B) {
	return func(b *testing.B) {
		pts := sinrDeployment(n)
		const power, pathLoss, noise, beta = 1, 4, 0.5, 2
		root := xrand.New(1)
		nodes := make([]*sinrNode, n)
		for v := 0; v < n; v++ {
			nodes[v] = &sinrNode{rng: root.Split(uint64(v)), budget: b.N}
		}
		transmitting := make([]bool, n)
		payload := make([]radio.Message, n)
		txIdx := make([]int, 0, n)
		b.ResetTimer()
		for step := 0; step < b.N; step++ {
			txIdx = txIdx[:0]
			for v := 0; v < n; v++ {
				transmitting[v] = false
				payload[v] = nil
				if nodes[v].Done() {
					continue
				}
				a := nodes[v].Act(step)
				if a.Transmit {
					transmitting[v] = true
					payload[v] = a.Msg
					txIdx = append(txIdx, v)
				}
			}
			for v := 0; v < n; v++ {
				if nodes[v].Done() {
					continue
				}
				var msg radio.Message
				if !transmitting[v] && len(txIdx) > 0 {
					var total float64
					best, bestPow := -1, 0.0
					for _, u := range txIdx {
						d := pts[u].Dist(pts[v])
						if d == 0 {
							d = 1e-9
						}
						pow := power * math.Pow(d, -pathLoss)
						total += pow
						if pow > bestPow {
							best, bestPow = u, pow
						}
					}
					if bestPow/(noise+(total-bestPow)) >= beta {
						msg = payload[best]
					}
				}
				nodes[v].Deliver(step, msg)
			}
		}
	}
}

// floodTopo is the n=2¹⁶ "udg" deployment the flood rows share, built once
// by gen.BuildCSR (packed at this size) and unpacked for the flat row, so
// the two rows walk identical neighbor lists in identical order.
var floodTopo struct {
	once         sync.Once
	packed, flat *graph.CSR
	err          error
}

func floodCSR(packed bool) (*graph.CSR, error) {
	floodTopo.once.Do(func() {
		floodTopo.packed, _, floodTopo.err = gen.BuildCSR("udg", graph.CompactThreshold, 3)
		if floodTopo.err == nil {
			floodTopo.flat = floodTopo.packed.Unpack()
		}
	})
	if packed {
		return floodTopo.packed, floodTopo.err
	}
	return floodTopo.flat, floodTopo.err
}

// decayPop is a Decay flood once every node is informed: at step s each
// node transmits with probability 2^-(s mod levels + 1), so the frontiers
// sweep from n/2 down to a handful per phase and the collision model's
// neighbor walk carries the step. A radio.Population, so no per-node
// interface call dilutes the model's share.
type decayPop struct {
	levels int
	rng    []xrand.RNG
	arm    *timerArmer
}

func (p *decayPop) Start(n int, opts *radio.Options) error {
	p.rng = make([]xrand.RNG, n)
	for v := range p.rng {
		p.rng[v] = radio.NodeRNG(opts.Seed, v)
	}
	return nil
}

func (p *decayPop) Act(step int, active, tx []int32) ([]int32, []int32) {
	p.arm.fire()
	prob := decay.Pow2Neg(step%p.levels + 1)
	for v := range p.rng {
		if p.rng[v].Bernoulli(prob) {
			tx = append(tx, int32(v))
		}
	}
	return active, tx
}

func (p *decayPop) Deliver(int, []int32, *phy.Outcome) {}
func (p *decayPop) AllDone([]int32) bool               { return true }
func (p *decayPop) SnapshotNode(int) []byte            { return nil }
func (p *decayPop) Restore([][]byte) error {
	return fmt.Errorf("decayPop does not restore")
}

// benchFloodSteps measures one engine step per op of decayPop on the
// n=2¹⁶ flood deployment, over its packed or its flat adjacency.
func benchFloodSteps(packed bool) stepLoop {
	return func(steps int, arm *timerArmer) error {
		csr, err := floodCSR(packed)
		if err != nil {
			return err
		}
		levels := int(math.Ceil(math.Log2(float64(csr.N() + 1))))
		pop := &decayPop{levels: levels, arm: arm}
		_, err = radio.RunPopulation(csr, pop, radio.Options{MaxSteps: steps, Seed: 1})
		return err
	}
}

// hugeTopos caches the streaming topologies shared by the huge rows below.
var hugeTopos = map[int]*hugeTopo{
	100000:  {n: 100000},
	1000000: {n: 1000000},
}

// hugeMem returns the footprint hook for one cached huge topology.
func hugeMem(h *hugeTopo) func() (int64, error) {
	return func() (int64, error) {
		if err := h.build(); err != nil {
			return 0, err
		}
		return h.bytes, nil
	}
}

// engineBenchSpec is one tracked engine micro-bench.
type engineBenchSpec struct {
	name       string
	nodes      int
	stepsPerOp int
	// huge rows run only under -bench-huge: building a 10⁵–10⁶-node
	// topology costs seconds to minutes and must not slow every CI gate.
	huge bool
	// mem measures the row's resident engine footprint (0 hook = not
	// measured; the JSON field stays absent).
	mem func() (int64, error)
	// A row is either a benchmark body (fn) or, when a twin gate
	// re-measures it, a step loop (loop).
	fn   func(b *testing.B)
	loop stepLoop
}

// benchFn returns the row's body for testing.Benchmark.
func (s engineBenchSpec) benchFn() func(b *testing.B) {
	if s.loop != nil {
		return s.loop.bench
	}
	return s.fn
}

// engineBenchSpecs defines the tracked engine micro-benches.
var engineBenchSpecs = []engineBenchSpec{
	{name: "seq_dense_n1024", nodes: 1024, stepsPerOp: 1, fn: benchSequentialSteps(32, 32, 0)},
	{name: "seq_sparse_n4096_live64", nodes: 4096, stepsPerOp: 1, fn: benchSequentialSteps(64, 64, 64)},
	{name: "seq_dyn_churn_n1024", nodes: 1024, stepsPerOp: 1, loop: benchDynSteps(32, 32, 64, nil)},
	{name: "seq_dyn_churn_n1024_obs", nodes: 1024, stepsPerOp: 1, loop: benchDynSteps(32, 32, 64, benchProbe)},
	{name: "seq_sinr_n1024", nodes: 1024, stepsPerOp: 1, fn: benchSINRSteps(1024)},
	{name: "seq_sinr_n4096", nodes: 4096, stepsPerOp: 1, fn: benchSINRSteps(4096)},
	{name: "seq_sinr_n65536", nodes: 65536, stepsPerOp: 1, fn: benchSINRSteps(65536)},
	{name: "sinr_dense_ref_n4096", nodes: 4096, stepsPerOp: 1, fn: benchSINRDenseRef(4096)},
	{name: "seq_flood_n65536", nodes: 65536, stepsPerOp: 1, loop: benchFloodSteps(false)},
	{name: "seq_flood_n65536_packed", nodes: 65536, stepsPerOp: 1, loop: benchFloodSteps(true)},
	{name: "seq_sinr_n100000", nodes: 100000, stepsPerOp: 1, huge: true,
		mem: hugeMem(hugeTopos[100000]), fn: benchStreamSINRSteps(hugeTopos[100000])},
	{name: "seq_sinr_n1000000", nodes: 1000000, stepsPerOp: 1, huge: true,
		mem: hugeMem(hugeTopos[1000000]), fn: benchStreamSINRSteps(hugeTopos[1000000])},
}

// seedBaseline is the dense and sparse rows measured on the seed's engine
// (per-step dense-scan delivery with fresh counts/from allocations), on the
// hardware that produced the first committed BENCH_engine.json.
var seedBaseline = []EngineBenchResult{
	{Name: "seq_dense_n1024", Nodes: 1024, StepsPerOp: 1, NsPerOp: 43366, AllocsPerOp: 2, BytesPerOp: 5122, NodeStepsPerSec: 1024 / 43366e-9},
	{Name: "seq_sparse_n4096_live64", Nodes: 4096, StepsPerOp: 1, NsPerOp: 34653, AllocsPerOp: 2, BytesPerOp: 20487, NodeStepsPerSec: 4096 / 34653e-9},
}

// measureEngineBench executes the engine micro-benches and returns the
// report. Huge rows (10⁵–10⁶-node topologies) run only when includeHuge is
// set; a non-empty filter is a comma-separated list of exact bench names to
// run (exact, not substring — "seq_sinr_n100000" must not drag in the
// n=10⁶ row it prefixes).
func measureEngineBench(includeHuge bool, filter string) (EngineBenchReport, error) {
	wanted := map[string]bool{}
	if filter != "" {
		for _, name := range strings.Split(filter, ",") {
			wanted[strings.TrimSpace(name)] = true
		}
	}
	report := EngineBenchReport{
		GeneratedBy:  "radionet-bench -engine-bench",
		GoVersion:    runtime.Version(),
		GoMaxProcs:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		SeedBaseline: seedBaseline,
		BaselineNote: "seed engine (dense-scan delivery) measured on the hardware of the first committed report",
	}
	for _, spec := range engineBenchSpecs {
		if spec.huge && !includeHuge {
			continue
		}
		if len(wanted) > 0 && !wanted[spec.name] {
			continue
		}
		r, ns, err := runBench(spec.name, spec.benchFn())
		if err != nil {
			return report, err
		}
		row := EngineBenchResult{
			Name:            spec.name,
			Nodes:           spec.nodes,
			StepsPerOp:      spec.stepsPerOp,
			NsPerOp:         ns,
			AllocsPerOp:     r.AllocsPerOp(),
			BytesPerOp:      r.AllocedBytesPerOp(),
			NodeStepsPerSec: float64(spec.nodes*spec.stepsPerOp) / (ns * 1e-9),
			AllocExact:      true,
		}
		if spec.mem != nil {
			bytes, err := spec.mem()
			if err != nil {
				return report, fmt.Errorf("engine bench %s footprint: %w", spec.name, err)
			}
			row.EngineBytes = bytes
			row.BytesPerNode = float64(bytes) / float64(spec.nodes)
		}
		report.Benchmarks = append(report.Benchmarks, row)
	}
	if len(report.Benchmarks) == 0 {
		return report, fmt.Errorf("no engine benches matched (filter %q, huge=%v)", filter, includeHuge)
	}
	return report, nil
}

// obsOverheadTolerance caps how much slower a probe-armed step loop may be
// than its unprobed twin measured in the same run (same host, same load):
// both rows are fresh, so the ratio is host-independent and gates the
// instrumentation itself, not the hardware.
const obsOverheadTolerance = 0.03

// packedFlatBound caps how much slower the flood step loop may run over
// packed adjacency than over the same lists flat, in the same run. On a
// 2-vCPU host single pairs read 1.10–1.29 with bit-packed blocks, and
// 1.61–1.67 with the delta-varint blocks they replaced.
const packedFlatBound = 1.4

// twinPairs is how many base/twin pairs a twin gate measures.
const twinPairs = 40

// twinWindow is how long one window of a twin gate runs. A shared host's
// speed moves between regimes a few seconds long: on a 2-vCPU VM, 100-ms
// windows of one row read 56–85 µs/step, and a window's reading correlates
// at 0.77 with the next one's. Two windows run back to back therefore
// mostly share a regime, and their ratio cancels it.
const twinWindow = 100 * time.Millisecond

// twinGate bounds, within one report, the ns/op ratio of every row named
// <base><suffix> to its <base> row.
type twinGate struct {
	suffix string
	bound  float64 // largest allowed twin/base ratio
	label  string  // log and error prefix
	fault  string  // what a breach means
	// race keeps the gate in race-detector builds. The _obs twins run the
	// same memory accesses as their base rows; the packed row runs more
	// (about 2.3× the flat row's ns/op under the detector), so its bound
	// holds only for a normal build.
	race bool
}

var twinGates = []twinGate{
	{"_obs", 1 + obsOverheadTolerance, "obs-overhead", "instrumentation leaked into the step loop", true},
	{"_packed", packedFlatBound, "packed-flat", "decoding packed adjacency costs too much of the step", false},
}

// checkTwins applies every twin gate to report. Run as part of
// -engine-bench, baseline or not. measure re-runs each twin and its base
// row as twinPairs back-to-back pairs, alternating which goes first (in
// -engine-bench one twinWindow per call; see windowMeasure), and the gate
// holds the median of the pairs' twin/base ratios to its bound: a real
// cost shows in every pair, while a host regime that holds for a pair
// cancels in its ratio and the pairs that straddle a regime switch fall to
// either side of the median. Each side's minimum over the pairs would
// instead hang on one lucky window: with a concurrent test package on a
// 2-vCPU VM the _obs minima read 0.93–1.04 of their base, the medians
// 0.96–1.01. The report's own rows, measured seconds apart, are not
// compared.
func checkTwins(report EngineBenchReport, measure func(name string) (float64, error), log io.Writer) error {
	byName := make(map[string]EngineBenchResult, len(report.Benchmarks))
	for _, b := range report.Benchmarks {
		byName[b.Name] = b
	}
	for _, g := range twinGates {
		if raceBuild && !g.race {
			fmt.Fprintf(log, "%s: not gated in a race-detector build\n", g.label)
			continue
		}
		for _, b := range report.Benchmarks {
			base, ok := byName[strings.TrimSuffix(b.Name, g.suffix)]
			if b.Name == base.Name || !ok {
				continue
			}
			names := [2]string{base.Name, b.Name}
			ratios := make([]float64, twinPairs)
			for i := range ratios {
				var ns [2]float64
				for j := range ns {
					side := (i + j) % 2
					var err error
					if ns[side], err = measure(names[side]); err != nil {
						return err
					}
				}
				ratios[i] = ns[1] / ns[0]
			}
			slices.Sort(ratios)
			ratio := (ratios[(twinPairs-1)/2] + ratios[twinPairs/2]) / 2
			fmt.Fprintf(log, "%s: %-24s vs %-24s %+.1f%% (median of %d pair ratios, range %+.1f%% to %+.1f%%)\n",
				g.label, b.Name, base.Name, (ratio-1)*100, twinPairs, (ratios[0]-1)*100, (ratios[twinPairs-1]-1)*100)
			if ratio > g.bound {
				return fmt.Errorf("%s: %s is %.1f%% slower than %s (bound %+.0f%%) — %s",
					g.label, b.Name, (ratio-1)*100, base.Name, (g.bound-1)*100, g.fault)
			}
		}
	}
	return nil
}

// runBench runs one engine bench and returns its result and ns/op.
func runBench(name string, fn func(b *testing.B)) (testing.BenchmarkResult, float64, error) {
	r := testing.Benchmark(fn)
	if r.N == 0 {
		return r, 0, fmt.Errorf("engine bench %s did not run", name)
	}
	return r, float64(r.T.Nanoseconds()) / float64(r.N), nil
}

// windowMeasure returns checkTwins' measure for report: the ns/op of one
// window of the named row's step loop, its step count sized from the row's
// ns/op in report to last about twinWindow.
func windowMeasure(report EngineBenchReport) func(name string) (float64, error) {
	nsPerOp := make(map[string]float64, len(report.Benchmarks))
	for _, b := range report.Benchmarks {
		nsPerOp[b.Name] = b.NsPerOp
	}
	return func(name string) (float64, error) {
		for _, spec := range engineBenchSpecs {
			if spec.name == name && spec.loop != nil && nsPerOp[name] > 0 {
				return timeSteps(spec.loop, max(1, int(float64(twinWindow)/nsPerOp[name])))
			}
		}
		return 0, fmt.Errorf("engine bench %q has no step loop and report row to re-measure", name)
	}
}

// timeSteps runs loop for steps steps after a GC, as testing.Benchmark does
// before each run, and returns its ns per step from the first Act to the
// loop's return on stepClock. The step loop runs on the calling goroutine,
// locked to its OS thread so that the thread's clock covers it; a loop that
// allocates nothing leaves the GC's threads idle.
func timeSteps(loop stepLoop, steps int) (float64, error) {
	runtime.GC()
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := int64(-1)
	if err := loop(steps, &timerArmer{reset: func() { start = stepClock() }}); err != nil {
		return 0, err
	}
	if start < 0 {
		return 0, fmt.Errorf("step loop never reached its first Act")
	}
	return float64(stepClock()-start) / float64(steps), nil
}

// clockOrigin anchors wallClock.
var clockOrigin = time.Now()

// wallClock reads the monotonic wall clock in ns.
func wallClock() int64 { return int64(time.Since(clockOrigin)) }

// writeEngineBench writes the JSON report to out.
func writeEngineBench(report EngineBenchReport, out io.Writer) error {
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}

// bytesPerNodeTolerance caps how much a row's resident bytes/node may grow
// over the baseline before the gate fails. Memory footprint is far less
// host-sensitive than ns/op (allocation sizes don't depend on CPU), so the
// band is tighter than the timing tolerance.
const bytesPerNodeTolerance = 0.25

// compareEngineBench checks fresh results against a previously recorded
// report (the CI bench-regression gate) on two axes: ns/op beyond the
// fractional tolerance (wide, because baseline and runner may be different
// hardware) and allocs/op (hardware-independent — this is the check that
// catches a step loop that started allocating). Every row is a
// steady-state step loop whose alloc count is deterministic, so any
// allocs/op increase at all fails. Benchmarks absent from the baseline
// are reported as new but never fail, so adding a bench doesn't require
// regenerating the baseline in the same change. Speedups only produce a
// note — refreshing the committed baseline is a deliberate act, not a
// gate.
func compareEngineBench(fresh, baseline EngineBenchReport, tolerance float64, log io.Writer) error {
	base := make(map[string]EngineBenchResult, len(baseline.Benchmarks))
	for _, b := range baseline.Benchmarks {
		base[b.Name] = b
	}
	var regressed []string
	for _, f := range fresh.Benchmarks {
		b, ok := base[f.Name]
		if !ok {
			fmt.Fprintf(log, "bench-compare: %-24s new benchmark, no baseline\n", f.Name)
			continue
		}
		ratio := f.NsPerOp / b.NsPerOp
		fmt.Fprintf(log, "bench-compare: %-24s %12.0f ns/op vs baseline %12.0f (%+.1f%%), %d vs %d allocs/op\n",
			f.Name, f.NsPerOp, b.NsPerOp, (ratio-1)*100, f.AllocsPerOp, b.AllocsPerOp)
		if ratio > 1+tolerance {
			regressed = append(regressed, fmt.Sprintf("%s: %.0f ns/op vs baseline %.0f (+%.1f%%, tolerance %.0f%%)",
				f.Name, f.NsPerOp, b.NsPerOp, (ratio-1)*100, tolerance*100))
		}
		if f.AllocsPerOp > b.AllocsPerOp {
			regressed = append(regressed, fmt.Sprintf("%s: %d allocs/op vs baseline %d (alloc-exact: no increase allowed)",
				f.Name, f.AllocsPerOp, b.AllocsPerOp))
		}
		// The memory gate compares bytes/node only when both reports carry
		// it: baselines written before the field existed (or runs that
		// skipped a row's footprint measurement) stay valid, no flag day.
		if f.BytesPerNode > 0 && b.BytesPerNode > 0 {
			growth := f.BytesPerNode/b.BytesPerNode - 1
			fmt.Fprintf(log, "bench-compare: %-24s %12.1f bytes/node vs baseline %12.1f (%+.1f%%)\n",
				f.Name, f.BytesPerNode, b.BytesPerNode, growth*100)
			if growth > bytesPerNodeTolerance {
				regressed = append(regressed, fmt.Sprintf("%s: %.1f bytes/node vs baseline %.1f (+%.1f%%, tolerance %.0f%%)",
					f.Name, f.BytesPerNode, b.BytesPerNode, growth*100, bytesPerNodeTolerance*100))
			}
		}
	}
	if len(regressed) > 0 {
		return fmt.Errorf("engine bench regression:\n  %s", strings.Join(regressed, "\n  "))
	}
	return nil
}

// loadEngineBench reads a previously written report.
func loadEngineBench(path string) (EngineBenchReport, error) {
	var report EngineBenchReport
	raw, err := os.ReadFile(path)
	if err != nil {
		return report, err
	}
	if err := json.Unmarshal(raw, &report); err != nil {
		return report, fmt.Errorf("parse %s: %w", path, err)
	}
	if len(report.Benchmarks) == 0 {
		return report, fmt.Errorf("%s holds no benchmarks", path)
	}
	return report, nil
}
