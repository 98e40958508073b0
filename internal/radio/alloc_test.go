package radio

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/dyn"
	"repro/internal/gen"
	"repro/internal/phy"
	"repro/internal/xrand"
)

// allocsPerRun is testing.AllocsPerRun with the collector paused. A GC
// cycle that lands inside a measured run adds the runtime's own
// allocations to that run (a sudog taken in gcMarkDone, for one), so
// without the pause the differentials below compare where GC cycles fall —
// they flip with GOGC and with unrelated changes to how much a run
// allocates — instead of what the step loop allocates.
func allocsPerRun(runs int, f func()) float64 {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return testing.AllocsPerRun(runs, f)
}

// steadyMsg is boxed once so transmitting it allocates nothing.
var steadyMsg Message = int64(42)

// steadyNode transmits a preallocated message with probability 1/2 each
// step; neither Act nor Deliver allocates.
type steadyNode struct {
	rng    *xrand.RNG
	step   int
	budget int
}

func (s *steadyNode) Act(step int) Action {
	if s.rng.Bernoulli(0.5) {
		return Transmit(steadyMsg)
	}
	return Listen()
}
func (s *steadyNode) Deliver(step int, msg Message) { s.step = step + 1 }
func (s *steadyNode) Done() bool                    { return s.step >= s.budget }

// TestSequentialStepZeroAlloc asserts the sequential step loop performs
// zero heap allocations per step after warm-up: total allocations of a run
// must not grow with MaxSteps. Run-construction costs (protocol instances,
// RNG splits, engine scratch) are identical for both run lengths and cancel
// out; any per-step allocation would surface as a positive difference
// across the extra 256 steps.
func TestSequentialStepZeroAlloc(t *testing.T) {
	g := gen.Grid(16, 16)
	g.Freeze() // build the CSR cache outside the measured region
	runSteps := func(steps int) {
		factory := func(info NodeInfo) Protocol {
			return &steadyNode{rng: info.RNG, budget: steps}
		}
		if _, err := Run(g, factory, Options{MaxSteps: steps, Seed: 7}); err != nil {
			t.Fatal(err)
		}
	}
	short := allocsPerRun(5, func() { runSteps(64) })
	long := allocsPerRun(5, func() { runSteps(320) })
	if long > short {
		t.Fatalf("sequential step loop allocates: %.1f allocs over 256 extra steps (%.1f vs %.1f per run)",
			long-short, long, short)
	}
}

// TestSequentialStepZeroAllocWithRetirement repeats the check on the sparse
// regime the active list exists for: most nodes retire at step 0 and a few
// keep transmitting, so compaction paths are exercised too.
func TestSequentialStepZeroAllocWithRetirement(t *testing.T) {
	g := gen.Grid(16, 16)
	g.Freeze()
	runSteps := func(steps int) {
		factory := func(info NodeInfo) Protocol {
			budget := steps
			if info.Index >= 16 {
				budget = 0 // retires immediately
			}
			return &steadyNode{rng: info.RNG, budget: budget}
		}
		if _, err := Run(g, factory, Options{MaxSteps: steps, Seed: 7}); err != nil {
			t.Fatal(err)
		}
	}
	short := allocsPerRun(5, func() { runSteps(64) })
	long := allocsPerRun(5, func() { runSteps(320) })
	if long > short {
		t.Fatalf("sparse step loop allocates: %.1f allocs over 256 extra steps", long-short)
	}
}

// allocProbeSink is package-level so the probe callback below captures
// nothing: a capturing closure would itself escape to the heap and muddy
// the differential with construction-side allocations.
var allocProbeSink int

func allocProbeCB(s *ProbeSample) { allocProbeSink += s.Active }

// TestSequentialStepZeroAllocProbeArmed repeats the zero-alloc check with
// Options.Probe armed over a dynamic topology whose boundary count grows
// with the run length (one epoch per 8 steps): the long run fires 40 probe
// samples to the short run's 8, so any allocation inside fireProbe — or in
// the boundary path it rides on — surfaces as a positive difference against
// the probe-less baseline over the same schedules. This pins the DESIGN.md
// §10 contract that instrumentation is free when off AND alloc-free when on.
func TestSequentialStepZeroAllocProbeArmed(t *testing.T) {
	g := gen.Grid(16, 16)
	g.Freeze()
	runSteps := func(steps int, probed bool) {
		// Built inside the measured region, but its allocations are
		// identical for the probed and bare runs, so they cancel.
		sched, err := dyn.Churn(g, steps/8, 8, 0.3, xrand.New(11))
		if err != nil {
			t.Fatal(err)
		}
		factory := func(info NodeInfo) Protocol {
			return &steadyNode{rng: info.RNG, budget: steps}
		}
		opts := Options{MaxSteps: steps, Seed: 7, Topology: sched}
		if probed {
			opts.Probe = allocProbeCB
		}
		if _, err := Run(g, factory, opts); err != nil {
			t.Fatal(err)
		}
	}
	for _, steps := range []int{64, 320} {
		probed := allocsPerRun(5, func() { runSteps(steps, true) })
		bare := allocsPerRun(5, func() { runSteps(steps, false) })
		if probed > bare {
			t.Fatalf("arming Probe costs %.1f allocs over %d boundaries (%.1f vs %.1f per run)",
				probed-bare, steps/8, probed, bare)
		}
	}
}

// TestSequentialStepZeroAllocPackedCSR repeats the differential on the
// graph-free RunCSR path with the adjacency bit-packed: the collision
// model's neighbor cursor must decode blocks into its Sync-time scratch, so
// the step loop stays allocation-free even though every neighbor list is now
// packed. The packed snapshot and cursor scratch are built per run
// (construction side) and cancel between the run lengths. Deliberately
// placed after the ProbeArmed differential above: that test compares two
// absolute allocation counts (probed vs bare) and is sensitive to the heap
// state earlier tests in this file leave behind — running this one before
// it shifts a GC boundary into exactly one of its two measured regions.
func TestSequentialStepZeroAllocPackedCSR(t *testing.T) {
	csr := gen.Grid(16, 16).Freeze().Pack()
	if !csr.IsPacked() {
		t.Fatal("Pack returned a flat snapshot")
	}
	runSteps := func(steps int) {
		factory := func(info NodeInfo) Protocol {
			return &steadyNode{rng: info.RNG, budget: steps}
		}
		if _, err := RunCSR(csr, factory, Options{MaxSteps: steps, Seed: 7}); err != nil {
			t.Fatal(err)
		}
	}
	short := allocsPerRun(5, func() { runSteps(64) })
	long := allocsPerRun(5, func() { runSteps(320) })
	if long > short {
		t.Fatalf("packed-CSR step loop allocates: %.1f allocs over 256 extra steps (%.1f vs %.1f per run)",
			long-short, long, short)
	}
}

// sparseNode transmits a preallocated message with probability 1/32 per
// step — the sparse Decay-like regime the SINR grid bucketing serves.
type sparseNode struct {
	rng    *xrand.RNG
	step   int
	budget int
}

func (s *sparseNode) Act(step int) Action {
	if s.rng.Bernoulli(1.0 / 32) {
		return Transmit(steadyMsg)
	}
	return Listen()
}
func (s *sparseNode) Deliver(step int, msg Message) { s.step = step + 1 }
func (s *sparseNode) Done() bool                    { return s.step >= s.budget }

// TestSequentialSINRStepZeroAllocN4096 pins zero per-step allocations for
// the grid-bucketed SINR path at n=4096 — the scale where a BENCH_engine
// report once showed 7 allocs/op. That reading was a measurement artifact
// (the bench reset its timer before engine construction, so thousands of
// one-time construction allocs amortized over a small iteration count), but
// the invariant it appeared to break is real and engine-sized state makes
// it easy to regress: this test holds it directly, with construction costs
// cancelling between the two run lengths exactly as in the tests above.
func TestSequentialSINRStepZeroAllocN4096(t *testing.T) {
	if testing.Short() {
		t.Skip("n=4096 SINR runs are slow; skipped with -short")
	}
	const n = 4096
	// The canonical phy:sinr deployment density: average degree ~8 at unit
	// decode range. Connectivity is irrelevant here.
	side := math.Sqrt(float64(n) * math.Pi / 8)
	pts := gen.UniformPoints(n, 2, side, xrand.New(3))
	params := phy.SINRParams{}.WithDefaults()
	g := gen.SINRConnectivity(pts, params)
	g.Freeze()
	runSteps := func(steps int) {
		model, err := phy.NewSINR(pts, params)
		if err != nil {
			t.Fatal(err)
		}
		factory := func(info NodeInfo) Protocol {
			return &sparseNode{rng: info.RNG, budget: steps}
		}
		if _, err := Run(g, factory, Options{MaxSteps: steps, Seed: 7, PHY: model}); err != nil {
			t.Fatal(err)
		}
	}
	short := allocsPerRun(3, func() { runSteps(32) })
	long := allocsPerRun(3, func() { runSteps(160) })
	if long > short {
		t.Fatalf("SINR step loop allocates at n=4096: %.1f allocs over 128 extra steps (%.1f vs %.1f per run)",
			long-short, long, short)
	}
}
