package radio

import (
	"math"
	"testing"

	"repro/internal/dyn"
	"repro/internal/gen"
	"repro/internal/phy"
	"repro/internal/xrand"
)

// probeWorkload: a churned grid with boundaries every 8 steps, steadyNode
// protocols that run the full budget.
func probeWorkload(t *testing.T, steps int) (*dyn.Schedule, Factory, Options) {
	t.Helper()
	g := gen.Grid(8, 8)
	sched, err := dyn.Churn(g, steps/8, 8, 0.3, xrand.New(11))
	if err != nil {
		t.Fatal(err)
	}
	factory := func(info NodeInfo) Protocol {
		return &steadyNode{rng: info.RNG, budget: steps}
	}
	return sched, factory, Options{MaxSteps: steps, Seed: 7, Topology: sched}
}

func runProbed(t *testing.T) (Result, []ProbeSample) {
	t.Helper()
	const steps = 40
	sched, factory, opts := probeWorkload(t, steps)
	g := gen.Grid(8, 8)
	var samples []ProbeSample
	opts.Probe = func(s *ProbeSample) { samples = append(samples, *s) } // copy: sample is reused
	res, err := Run(g, factory, opts)
	if err != nil {
		t.Fatal(err)
	}
	_ = sched
	return res, samples
}

// TestProbeFiresAtBoundariesAndFinal asserts the probe contract: one
// sample per epoch boundary plus one final sample, cumulative counters
// matching Result, windows covering the run exactly.
func TestProbeFiresAtBoundariesAndFinal(t *testing.T) {
	t.Run("sequential", func(t *testing.T) {
		res, samples := runProbed(t)
		// Boundaries at 8,16,24,32 plus the final sample at res.Steps.
		if len(samples) != 5 {
			t.Fatalf("got %d samples, want 5 (4 boundaries + final)", len(samples))
		}
		for i, s := range samples[:4] {
			wantStep := (i + 1) * 8
			if s.Step != wantStep || s.Final {
				t.Fatalf("sample %d: step=%d final=%v, want boundary step %d", i, s.Step, s.Final, wantStep)
			}
			if s.WindowSteps != 8 {
				t.Fatalf("sample %d: window=%d, want 8", i, s.WindowSteps)
			}
			if s.Active != 64 {
				t.Fatalf("sample %d: active=%d, want 64 (nobody retires mid-run)", i, s.Active)
			}
		}
		last := samples[4]
		if !last.Final || last.Step != res.Steps {
			t.Fatalf("last sample: step=%d final=%v, want final at %d", last.Step, last.Final, res.Steps)
		}
		if last.Transmissions != res.Transmissions || last.Deliveries != res.Deliveries || last.Collisions != res.Collisions {
			t.Fatalf("final sample counters %+v do not match result %+v", last, res)
		}
		// Windows tile the run: 4×8 boundary windows + the final window.
		total := 0
		for _, s := range samples {
			total += s.WindowSteps
		}
		if total != res.Steps {
			t.Fatalf("windows sum to %d steps, run had %d", total, res.Steps)
		}
		// AvgFrontier over all windows reconstructs total transmissions.
		var tx float64
		for _, s := range samples {
			tx += s.AvgFrontier * float64(s.WindowSteps)
		}
		if math.Abs(tx-float64(res.Transmissions)) > 1e-6 {
			t.Fatalf("AvgFrontier windows reconstruct %v transmissions, result has %d", tx, res.Transmissions)
		}
	})
}

// TestProbeDoesNotChangeTranscript: arming the probe must not perturb the
// run — same Result, same per-step stats.
func TestProbeDoesNotChangeTranscript(t *testing.T) {
	run := func(probe bool) (Result, []StepStats) {
		const steps = 40
		_, factory, opts := probeWorkload(t, steps)
		g := gen.Grid(8, 8)
		var trace []StepStats
		opts.OnStep = func(st StepStats) { trace = append(trace, st) }
		if probe {
			opts.Probe = func(*ProbeSample) {}
		}
		res, err := Run(g, factory, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res, trace
	}
	resOff, traceOff := run(false)
	resOn, traceOn := run(true)
	if resOff != resOn {
		t.Fatalf("probe changed the result: %+v vs %+v", resOff, resOn)
	}
	if len(traceOff) != len(traceOn) {
		t.Fatalf("probe changed the step count: %d vs %d", len(traceOff), len(traceOn))
	}
	for i := range traceOff {
		if traceOff[i] != traceOn[i] {
			t.Fatalf("step %d stats diverge with probe armed: %+v vs %+v", i, traceOff[i], traceOn[i])
		}
	}
}

// TestProbeStaticRunFinalOnly: static runs have no epoch boundaries; the
// probe still delivers exactly one final sample.
func TestProbeStaticRunFinalOnly(t *testing.T) {
	g := gen.Grid(8, 8)
	var samples []ProbeSample
	factory := func(info NodeInfo) Protocol {
		return &steadyNode{rng: info.RNG, budget: 32}
	}
	res, err := Run(g, factory, Options{
		MaxSteps: 32, Seed: 7,
		Probe: func(s *ProbeSample) { samples = append(samples, *s) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 1 || !samples[0].Final || samples[0].Step != res.Steps {
		t.Fatalf("static run: got %d samples (%+v), want one final at step %d", len(samples), samples, res.Steps)
	}
	if samples[0].HasPHY {
		t.Fatal("collision model reports no PHY stats; HasPHY should be false")
	}
}

// TestProbeReportsSINRStats: under the SINR model the sample carries the
// candidate-arena stats through phy.StatsSource.
func TestProbeReportsSINRStats(t *testing.T) {
	const n = 64
	side := math.Sqrt(float64(n) * math.Pi / 8)
	pts := gen.UniformPoints(n, 2, side, xrand.New(3))
	params := phy.SINRParams{}.WithDefaults()
	g := gen.SINRConnectivity(pts, params)
	model, err := phy.NewSINR(pts, params)
	if err != nil {
		t.Fatal(err)
	}
	var last ProbeSample
	factory := func(info NodeInfo) Protocol {
		return &steadyNode{rng: info.RNG, budget: 32}
	}
	if _, err := Run(g, factory, Options{
		MaxSteps: 32, Seed: 7, PHY: model,
		Probe: func(s *ProbeSample) { last = *s },
	}); err != nil {
		t.Fatal(err)
	}
	if !last.HasPHY {
		t.Fatal("SINR model implements phy.StatsSource; HasPHY should be true")
	}
	if last.PHY.ArenaCap <= 0 {
		t.Fatalf("arena cap = %d, want > 0", last.PHY.ArenaCap)
	}
	if last.PHY.ArenaHighWater <= 0 {
		t.Fatalf("arena high-water = %d, want > 0 under a steady 50%% transmit load", last.PHY.ArenaHighWater)
	}
}
