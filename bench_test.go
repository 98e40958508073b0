// Package repro's root benchmarks regenerate every experiment table
// (E1–E23, DESIGN.md §4–§7) under `go test -bench`, and additionally
// micro-benchmark the simulator and algorithm primitives.
//
// Experiment benches run at Quick scale per iteration; use
// `go run ./cmd/radionet-bench -scale full` for the paper-scale sweeps
// recorded in EXPERIMENTS.md.
package repro

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/decay"
	"repro/internal/exp"
	"repro/internal/gen"
	"repro/internal/mis"
	"repro/internal/mpx"
	"repro/internal/radio"
	"repro/internal/sched"
	"repro/internal/xrand"
)

// benchExperiment runs one registered experiment per iteration (trial grid
// fanned out over GOMAXPROCS workers, as in CI and the CLI).
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := exp.Lookup(id)
	if err != nil {
		b.Fatal(err)
	}
	cfg := exp.Config{Scale: exp.Quick, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1MISScaling(b *testing.B)       { benchExperiment(b, "E1") }
func BenchmarkE2MISCorrectness(b *testing.B)   { benchExperiment(b, "E2") }
func BenchmarkE3DegreeEstimate(b *testing.B)   { benchExperiment(b, "E3") }
func BenchmarkE4Decay(b *testing.B)            { benchExperiment(b, "E4") }
func BenchmarkE5ClusterRadius(b *testing.B)    { benchExperiment(b, "E5") }
func BenchmarkE6BadJ(b *testing.B)             { benchExperiment(b, "E6") }
func BenchmarkE7Broadcast(b *testing.B)        { benchExperiment(b, "E7") }
func BenchmarkE8GrowthBounded(b *testing.B)    { benchExperiment(b, "E8") }
func BenchmarkE9LeaderElection(b *testing.B)   { benchExperiment(b, "E9") }
func BenchmarkE10GoldenRounds(b *testing.B)    { benchExperiment(b, "E10") }
func BenchmarkE11GrowthMeasure(b *testing.B)   { benchExperiment(b, "E11") }
func BenchmarkE12Ablation(b *testing.B)        { benchExperiment(b, "E12") }
func BenchmarkE13SINRCrossModel(b *testing.B)  { benchExperiment(b, "E13") }
func BenchmarkE14MultiSource(b *testing.B)     { benchExperiment(b, "E14") }
func BenchmarkE15WakeAblation(b *testing.B)    { benchExperiment(b, "E15") }
func BenchmarkE16WakeupReduction(b *testing.B) { benchExperiment(b, "E16") }
func BenchmarkE17ChurnBroadcast(b *testing.B)  { benchExperiment(b, "E17") }
func BenchmarkE18FaultMIS(b *testing.B)        { benchExperiment(b, "E18") }
func BenchmarkE19PartitionHeal(b *testing.B)   { benchExperiment(b, "E19") }
func BenchmarkE20MobileElection(b *testing.B)  { benchExperiment(b, "E20") }
func BenchmarkE21SINRUnified(b *testing.B)     { benchExperiment(b, "E21") }
func BenchmarkE22CaptureDecay(b *testing.B)    { benchExperiment(b, "E22") }
func BenchmarkE23CDvsNoCDMIS(b *testing.B)     { benchExperiment(b, "E23") }

// --- Micro-benchmarks of the primitives ---

// benchMsg is boxed once so bench protocols measure engine cost, not
// payload boxing.
var benchMsg radio.Message = int64(7)

// coinNode transmits a coin flip every step until budget steps pass. Nodes
// with live=false retire immediately (sparse workloads).
type coinNode struct {
	rng    *xrand.RNG
	step   int
	budget int
	dead   bool
}

func (c *coinNode) Act(step int) radio.Action {
	if c.rng.Bernoulli(0.5) {
		return radio.Transmit(benchMsg)
	}
	return radio.Listen()
}
func (c *coinNode) Deliver(step int, msg radio.Message) { c.step = step + 1 }
func (c *coinNode) Done() bool                          { return c.dead || c.step >= c.budget }

// BenchmarkEngineStepThroughput measures raw sequential-simulator
// throughput in node-steps per op. "dense" is a 1024-node grid where half
// the nodes transmit each step; "sparse" is the Decay/MIS regime — a
// 4096-node grid where all but 64 nodes retired at step 0 — which the
// touched-vertex delivery and compacting active list make ~free.
func BenchmarkEngineStepThroughput(b *testing.B) {
	b.Run("dense", func(b *testing.B) {
		g := gen.Grid(32, 32)
		g.Freeze()
		factory := func(info radio.NodeInfo) radio.Protocol {
			return &coinNode{rng: info.RNG, budget: b.N}
		}
		b.ResetTimer()
		if _, err := radio.Run(g, factory, radio.Options{MaxSteps: b.N, Seed: 1}); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(g.N()), "node-steps/op")
	})
	b.Run("sparse", func(b *testing.B) {
		g := gen.Grid(64, 64)
		g.Freeze()
		factory := func(info radio.NodeInfo) radio.Protocol {
			return &coinNode{rng: info.RNG, budget: b.N, dead: info.Index >= 64}
		}
		b.ResetTimer()
		if _, err := radio.Run(g, factory, radio.Options{MaxSteps: b.N, Seed: 1}); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(g.N()), "node-steps/op")
	})
}

func BenchmarkRadioMISGrid256(b *testing.B) {
	g := gen.Grid(16, 16)
	for i := 0; i < b.N; i++ {
		out, err := mis.Run(g, mis.Params{}, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		if !out.Completed {
			b.Fatal("incomplete")
		}
	}
}

func BenchmarkPartitionMIS(b *testing.B) {
	g := gen.Grid(32, 32)
	centers := g.GreedyMIS(nil)
	rng := xrand.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mpx.Partition(g, centers, 0.25, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScheduleCompute(b *testing.B) {
	g := gen.Grid(24, 24)
	rng := xrand.New(2)
	a, err := mpx.Partition(g, g.GreedyMIS(nil), 0.25, rng)
	if err != nil {
		b.Fatal(err)
	}
	f, err := sched.BuildForest(g, a)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched.ComputeSchedule(g, f)
	}
}

func BenchmarkDecayBlockStar(b *testing.B) {
	g := gen.Star(64)
	for i := 0; i < b.N; i++ {
		factory := func(info radio.NodeInfo) radio.Protocol {
			return decay.NewNode(info, 8, info.Index > 0, info.Index)
		}
		if _, err := radio.Run(g, factory, radio.Options{MaxSteps: 1 << 16, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBroadcastPaperGrid(b *testing.B) {
	g := gen.Grid(12, 12)
	for i := 0; i < b.N; i++ {
		if _, err := core.Broadcast(g, 0, core.Params{}, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBroadcastDecayGrid(b *testing.B) {
	g := gen.Grid(12, 12)
	for i := 0; i < b.N; i++ {
		if _, err := baseline.DecayBroadcast(g, 0, 0, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExactIndependenceNumber(b *testing.B) {
	rng := xrand.New(3)
	g := gen.GNP(48, 0.15, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := g.IndependenceNumberExact(); !ok {
			b.Fatal("refused")
		}
	}
}

func BenchmarkBFS(b *testing.B) {
	g := gen.Grid(64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.BFS(i % g.N())
	}
}
