package exp

import (
	"testing"

	"repro/internal/decay"
	"repro/internal/dyn"
	"repro/internal/gen"
	"repro/internal/phy"
	"repro/internal/radio"
	"repro/internal/xrand"
)

// runFloodCounted is runFlood with an O(n) oracle beside the incremental
// informed count: the engine hook keeps the flood population, and after
// every step (and at the end) the count the harness reports must equal a
// rescan of every node's rank for the target.
func runFloodCounted(t *testing.T, n int, topo radio.Topology, sources map[int]int64, cfg FloodConfig,
	engine func(*decay.Flood, radio.Options) (radio.Result, error)) FloodOutcome {
	t.Helper()
	var fl *decay.Flood
	rescan := func() int {
		c := 0
		for v := 0; v < n; v++ {
			if r, ok := fl.Rank(v); ok && r == fl.Target() {
				c++
			}
		}
		return c
	}
	steps := 0
	cfg.OnStep = func(step, informed int) {
		steps++
		if want := rescan(); informed != want {
			t.Fatalf("step %d: incremental informed count %d, rescan %d", step, informed, want)
		}
	}
	out, err := runFlood(n, topo, sources, cfg, func(f *decay.Flood, o radio.Options) (radio.Result, error) {
		fl = f
		return engine(f, o)
	})
	if err != nil {
		t.Fatal(err)
	}
	if steps == 0 {
		t.Fatal("no step observed")
	}
	if want := rescan(); out.InformedEnd != want {
		t.Fatalf("InformedEnd %d, rescan %d", out.InformedEnd, want)
	}
	return out
}

// TestFloodInformedCountMatchesRescan is the differential test of the O(1)
// informed count against the O(n) scan it replaced, on the three paths a
// flood takes: a static RunFloodCSR (multi-source, so lower ranks spread
// too, under collision detection so markers arrive as well), a churned
// RunFlood, and a run resumed from a mid-run checkpoint.
func TestFloodInformedCountMatchesRescan(t *testing.T) {
	t.Run("static-csr", func(t *testing.T) {
		csr, _, err := gen.BuildCSR("udg", 400, 3)
		if err != nil {
			t.Fatal(err)
		}
		sources := map[int]int64{5: 700, 100: 9000, 333: 12}
		cfg := FloodConfig{Budget: 4000, ProbeStep: -1, Seed: 4, PHY: phy.NewCollisionCD()}
		out := runFloodCounted(t, csr.N(), nil, sources, cfg, func(f *decay.Flood, o radio.Options) (radio.Result, error) {
			return radio.RunPopulation(csr, f, o)
		})
		if out.Complete < 0 {
			t.Fatalf("static flood did not complete: %+v", out)
		}
	})

	g := gen.Grid(8, 8)
	sched, err := dyn.Churn(g, 12, 8, 0.3, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	sources := map[int]int64{0: 7, 63: 3}
	base := FloodConfig{Budget: 96, ProbeStep: 10, Seed: 99}
	onEngine := func(f *decay.Flood, o radio.Options) (radio.Result, error) { return radio.RunPopulation(nil, f, o) }
	want, err := RunFlood(g, sched, sources, base)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("churn", func(t *testing.T) {
		if got := runFloodCounted(t, g.N(), sched, sources, base, onEngine); got != want {
			t.Fatalf("outcome %+v, plain run %+v", got, want)
		}
	})

	t.Run("resumed", func(t *testing.T) {
		var mid *FloodCheckpoint
		cfg := base
		cfg.OnCheckpoint = func(cp *FloodCheckpoint) error {
			if cp.Engine.Step >= 40 && mid == nil {
				mid = cp
			}
			return nil
		}
		if _, err := RunFlood(g, sched, sources, cfg); err != nil {
			t.Fatal(err)
		}
		if mid == nil {
			t.Fatal("no mid-run checkpoint")
		}
		rcfg := base
		rcfg.Resume = mid
		if got := runFloodCounted(t, g.N(), sched, sources, rcfg, onEngine); got != want {
			t.Fatalf("resumed outcome %+v, uninterrupted %+v", got, want)
		}
	})
}
