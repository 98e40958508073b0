package exp

// E17–E20: the dynamic-topology suite (ISSUE 3). Every static experiment
// runs on a frozen graph; these four put the paper's protocol ingredients
// under the internal/dyn mutation schedules — churn, edge faults,
// partition/heal, and waypoint mobility — through the engines'
// Options.Topology hook. Each trial builds its schedule from the trial seed
// alone, so the suite keeps the byte-identical-output contract at any
// -parallel value.

import (
	"fmt"
	"math"

	"repro/internal/decay"
	"repro/internal/dyn"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mis"
	"repro/internal/phy"
	"repro/internal/radio"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// FloodOutcome summarizes one dynamic flood run.
type FloodOutcome struct {
	// Complete is the first step after which every node held the target
	// rank; -1 if the budget ran out first.
	Complete int `json:"complete"`
	// InformedEnd is the number of nodes holding the target when the run
	// ended.
	InformedEnd int `json:"informedEnd"`
	// InformedProbe is the number of nodes holding the target at the end
	// of step probeStep (0 when probeStep < 0).
	InformedProbe int `json:"informedProbe"`
}

// FloodCheckpoint is a resumable snapshot of an in-flight RunFlood: the
// engine-level checkpoint (protocol states, active list, counters) plus the
// harness-level partial outcome, which the engine cannot know about. Both
// halves are captured at the same epoch boundary, so Partial covers exactly
// the steps before Engine.Step. It is JSON-serializable for the serve
// journal (DESIGN.md §8).
type FloodCheckpoint struct {
	Engine  *radio.Checkpoint `json:"engine"`
	Partial FloodOutcome      `json:"partial"`
}

// FloodConfig parameterizes RunFlood.
type FloodConfig struct {
	// Budget bounds the run in steps.
	Budget int
	// ProbeStep, when ≥ 0, records coverage at the end of that step into
	// FloodOutcome.InformedProbe.
	ProbeStep int
	// Seed drives all run randomness.
	Seed uint64
	// PHY selects the reception model (nil = the graph collision default);
	// passed through to radio.Options.PHY.
	PHY phy.Model
	// OnStep, when non-nil, observes (step, nodes currently holding the
	// target) after each step — radionet-sim's flood mode uses it for
	// per-epoch progress.
	OnStep func(step, informed int)
	// OnCheckpoint, when non-nil, receives a resumable snapshot at every
	// topology epoch boundary (dynamic runs only — a static flood has no
	// boundaries and is simply re-run from scratch after a crash). It is the
	// flood's one boundary hook, radio.Options.Checkpoint lifted to the
	// harness: a non-nil error aborts the run with that error, and a
	// consumer that only observes returns nil. The serve layer chains its
	// prefix-cache publication and its journal here (DESIGN.md §8, §9);
	// chained consumers share the one snapshot and must not mutate it.
	OnCheckpoint func(cp *FloodCheckpoint) error
	// Resume, when non-nil, continues the flood from the given snapshot
	// instead of step 0. The caller must supply the same graph, topology,
	// sources, and FloodConfig the snapshot was captured under; the outcome
	// is then byte-identical to the uninterrupted run's.
	Resume *FloodCheckpoint
	// Probe, when non-nil, receives advisory engine-load samples at epoch
	// boundaries and once at run end — passed through to
	// radio.Options.Probe, same contract (the sample is reused; copy out
	// what you keep). The serve layer feeds these into its /metrics engine
	// gauges (DESIGN.md §10).
	Probe func(s *radio.ProbeSample)
}

// RunFlood floods the sources' ranks over topo (nil = static g) for at most
// cfg.Budget steps and reports completion/coverage of the highest rank.
// E17, E19–E21 and the radionet-sim/serve flood paths are built on this
// runner, so the CLIs and the experiment suite cannot disagree about what a
// flood means — under any topology schedule or reception model.
func RunFlood(g *graph.Graph, topo radio.Topology, sources map[int]int64, cfg FloodConfig) (FloodOutcome, error) {
	return runFlood(g.N(), topo, sources, cfg, func(fl *decay.Flood, opts radio.Options) (radio.Result, error) {
		if topo == nil {
			return radio.RunPopulation(g.Freeze(), fl, opts)
		}
		// The flood is sized from g (its levels); the engine from the
		// schedule. They must agree.
		if csr, _ := topo.EpochAt(0); csr != nil && csr.N() != g.N() {
			return radio.Result{}, fmt.Errorf("radio: Topology epoch 0 has %d nodes for %d protocol nodes", csr.N(), g.N())
		}
		return radio.RunPopulation(nil, fl, opts)
	})
}

// RunFloodCSR is RunFlood on the graph-free streaming path: the frozen
// snapshot IS the run's (static) topology, installed through
// radio.RunPopulation, so no graph.Graph intermediate ever exists — E24
// floods 10⁵-node streaming-built CSRs through this entry. Dynamic
// schedules don't apply here; use RunFlood for those.
func RunFloodCSR(csr *graph.CSR, sources map[int]int64, cfg FloodConfig) (FloodOutcome, error) {
	return runFlood(csr.N(), nil, sources, cfg, func(fl *decay.Flood, opts radio.Options) (radio.Result, error) {
		return radio.RunPopulation(csr, fl, opts)
	})
}

// runFlood is the engine-parametric core shared by RunFlood and RunFloodCSR.
// The flood records its own completion step and stops there; the harness
// adds the probe, the per-step observer and the resumable outcome-so-far.
func runFlood(n int, topo radio.Topology, sources map[int]int64, cfg FloodConfig, engine func(*decay.Flood, radio.Options) (radio.Result, error)) (FloodOutcome, error) {
	levels := int(math.Ceil(math.Log2(float64(n + 1))))
	fl := decay.NewFlood(levels, cfg.Budget, sources)
	out := FloodOutcome{Complete: -1}
	// sofar is the outcome over the steps run so far: a completion step
	// carried in by a resume, else the flood's own.
	sofar := func() FloodOutcome {
		o := out
		if o.Complete < 0 {
			o.Complete = fl.Complete()
		}
		return o
	}
	opts := radio.Options{
		MaxSteps: cfg.Budget,
		Seed:     cfg.Seed ^ 0xdf10a7,
		Topology: topo,
		PHY:      cfg.PHY,
		Probe:    cfg.Probe,
	}
	opts.OnStep = func(st radio.StepStats) {
		informed := fl.Informed()
		if st.Step == cfg.ProbeStep {
			out.InformedProbe = informed
		}
		if cfg.OnStep != nil {
			cfg.OnStep(st.Step, informed)
		}
	}
	if cp := cfg.Resume; cp != nil {
		// The engine restores per-node state; the harness half of the
		// snapshot restores the outcome-so-far (a probe or completion step
		// before the checkpoint never re-fires in the resumed run).
		out = cp.Partial
		if out.Complete >= 0 {
			fl.Stop()
		}
		opts.Resume = cp.Engine
	}
	if cfg.OnCheckpoint != nil {
		opts.Checkpoint = func(ecp *radio.Checkpoint) error {
			// At a boundary the probe and the flood have seen exactly the
			// steps before ecp.Step — the two snapshot halves are
			// consistent by construction.
			return cfg.OnCheckpoint(&FloodCheckpoint{Engine: ecp, Partial: sofar()})
		}
	}
	if _, err := engine(fl, opts); err != nil {
		return FloodOutcome{}, err
	}
	out = sofar()
	out.InformedEnd = fl.Informed()
	return out, nil
}

// RunE17 — broadcast under churn: the Decay-style flood on a grid whose
// nodes churn out (all incident edges lost) and back per epoch. At zero
// churn the flood completes well inside the budget; as the per-epoch down
// probability grows, completion degrades gracefully into partial coverage
// rather than collapsing, because re-flooding resumes whenever a node
// churns back in. One trial = one churn schedule + one flood run.
func RunE17(cfg Config) (*Report, error) {
	side := 10
	reps := 4
	if cfg.Scale == Full {
		side = 16
		reps = 10
	}
	g := gen.Grid(side, side)
	n := g.N()
	levels := int(math.Ceil(math.Log2(float64(n + 1))))
	budget := 6 * (2*side + 2) * levels
	epochLen := 4 * levels
	rates := []float64{0, 0.1, 0.2, 0.4}
	grid := NewGrid("E17")
	for _, rate := range rates {
		rate := rate
		grid.AddReps(fmt.Sprintf("rate=%g", rate), reps, func(seed uint64) (Sample, error) {
			trng := xrand.New(seed)
			var topo radio.Topology
			if rate > 0 {
				sched, err := dyn.Churn(g, budget/epochLen, epochLen, rate, trng)
				if err != nil {
					return Sample{}, err
				}
				topo = sched
			}
			out, err := RunFlood(g, topo, map[int]int64{0: 1}, FloodConfig{Budget: budget, ProbeStep: -1, Seed: trng.Uint64()})
			if err != nil {
				return Sample{}, err
			}
			return Sample{Values: V(
				"done", out.Complete >= 0,
				"step", completedOr(out.Complete, budget),
				"frac", float64(out.InformedEnd)/float64(n),
			)}, nil
		})
	}
	results, err := grid.Run(cfg)
	if err != nil {
		return nil, err
	}
	groups := ByGroup(results)
	tb := &stats.Table{
		Title:  "E17 — Decay-style broadcast under per-epoch node churn (grid)",
		Header: []string{"churn rate", "trials", "completed", "mean steps", "mean informed frac"},
	}
	for _, rate := range rates {
		ss := groups[fmt.Sprintf("rate=%g", rate)]
		tb.AddRowf(rate, len(ss),
			fmt.Sprintf("%d/%d", int(SumMetric(ss, "done")), len(ss)),
			stats.Mean(Metric(ss, "step")), stats.Mean(Metric(ss, "frac")))
	}
	rep := &Report{}
	rep.Add(tb)
	return rep, nil
}

// RunE18 — Radio MIS stability under edge faults: ComputeMIS (Algorithm 7)
// runs while links fail and recover per epoch, and its output is judged
// against the topology in force when the run ended. Faults can make the
// result stale in both directions — two announced MIS nodes become adjacent
// when a failed edge heals, and a node whose dominator churned away is left
// uncovered. One trial = one fault schedule + one MIS run.
func RunE18(cfg Config) (*Report, error) {
	nodes := 72
	reps := 4
	if cfg.Scale == Full {
		nodes = 160
		reps = 10
	}
	rates := []float64{0, 0.1, 0.3}
	grid := NewGrid("E18")
	for _, rate := range rates {
		rate := rate
		grid.AddReps(fmt.Sprintf("rate=%g", rate), reps, func(seed uint64) (Sample, error) {
			trng := xrand.New(seed)
			base := gen.GNP(nodes, 6/float64(nodes), trng)
			roundLen, rounds := mis.EstimateLayout(nodes, mis.Params{})
			epochLen := 2 * roundLen
			epochs := (roundLen*rounds)/epochLen + 1
			sched, err := dyn.EdgeFaults(base, epochs, epochLen, rate, trng)
			if err != nil {
				return Sample{}, err
			}
			var lastStep int
			out, err := mis.RunOnEngine(base, mis.Params{}, trng.Uint64(), func(f radio.Factory, o radio.Options) (radio.Result, error) {
				o.Topology = sched
				res, err := radio.Run(base, f, o)
				lastStep = res.Steps
				return res, err
			})
			if err != nil {
				return Sample{}, err
			}
			csr, _ := sched.EpochAt(max(lastStep-1, 0))
			final := csr.Graph()
			adjPairs, uncovered := misStaleness(final, out.MIS)
			return Sample{Values: V(
				"completed", out.Completed,
				"valid", out.Completed && adjPairs == 0 && uncovered == 0,
				"adjPairs", adjPairs,
				"uncovered", uncovered,
			)}, nil
		})
	}
	results, err := grid.Run(cfg)
	if err != nil {
		return nil, err
	}
	groups := ByGroup(results)
	tb := &stats.Table{
		Title:  "E18 — Radio MIS run under per-epoch edge faults, judged on the final topology",
		Header: []string{"fault rate", "trials", "completed", "valid on final", "mean adjacent MIS pairs", "mean uncovered"},
	}
	for _, rate := range rates {
		ss := groups[fmt.Sprintf("rate=%g", rate)]
		tb.AddRowf(rate, len(ss),
			fmt.Sprintf("%d/%d", int(SumMetric(ss, "completed")), len(ss)),
			fmt.Sprintf("%d/%d", int(SumMetric(ss, "valid")), len(ss)),
			stats.Mean(Metric(ss, "adjPairs")), stats.Mean(Metric(ss, "uncovered")))
	}
	rep := &Report{}
	rep.Add(tb)
	return rep, nil
}

// misStaleness counts how a claimed MIS fails on g: adjacent in-MIS pairs
// (independence violations) and nodes with neither membership nor an in-MIS
// neighbor (coverage gaps).
func misStaleness(g *graph.Graph, misSet []int) (adjPairs, uncovered int) {
	in := make([]bool, g.N())
	for _, v := range misSet {
		in[v] = true
	}
	for v := 0; v < g.N(); v++ {
		covered := in[v]
		for _, w := range g.Neighbors(v) {
			if in[w] {
				covered = true
				if in[v] && int(w) > v {
					adjPairs++
				}
			}
		}
		if !covered {
			uncovered++
		}
	}
	return adjPairs, uncovered
}

// RunE19 — re-convergence after a partition heals: the grid is cut into two
// halves before the flood can cross, the source side saturates, and when
// the crossing edges return the flood must re-converge. The probe at the
// heal step checks containment (only the source side informed); the
// after-heal completion cost is compared with the uncut baseline. One trial
// = one flood run against a PartitionHeal schedule.
func RunE19(cfg Config) (*Report, error) {
	side := 10
	reps := 4
	if cfg.Scale == Full {
		side = 14
		reps = 10
	}
	g := gen.Grid(side, side)
	n := g.N()
	levels := int(math.Ceil(math.Log2(float64(n + 1))))
	static := 4 * (2*side + 2) * levels // generous static completion budget
	heals := []int{0, static / 2, static}
	budget := 3 * static
	mark := make([]bool, n)
	for v := range mark {
		mark[v] = v%side >= side/2 // right half of each row
	}
	grid := NewGrid("E19")
	for _, heal := range heals {
		heal := heal
		grid.AddReps(fmt.Sprintf("heal=%d", heal), reps, func(seed uint64) (Sample, error) {
			trng := xrand.New(seed)
			var topo radio.Topology
			if heal > 0 {
				sched, err := dyn.PartitionHeal(g, mark, 1, heal)
				if err != nil {
					return Sample{}, err
				}
				topo = sched
			}
			out, err := RunFlood(g, topo, map[int]int64{0: 1}, FloodConfig{Budget: budget, ProbeStep: heal - 1, Seed: trng.Uint64()})
			if err != nil {
				return Sample{}, err
			}
			afterHeal := -1
			if out.Complete >= 0 {
				afterHeal = max(out.Complete-heal, 0)
			}
			return Sample{Values: V(
				"done", out.Complete >= 0,
				"step", completedOr(out.Complete, budget),
				"afterHeal", completedOr(afterHeal, budget),
				"probeFrac", float64(out.InformedProbe)/float64(n),
			)}, nil
		})
	}
	results, err := grid.Run(cfg)
	if err != nil {
		return nil, err
	}
	groups := ByGroup(results)
	tb := &stats.Table{
		Title:  "E19 — flood containment under a partition and re-convergence after heal (grid, source in left half)",
		Header: []string{"heal step", "trials", "completed", "mean complete", "mean steps after heal", "informed frac at heal"},
	}
	for _, heal := range heals {
		ss := groups[fmt.Sprintf("heal=%d", heal)]
		tb.AddRowf(heal, len(ss),
			fmt.Sprintf("%d/%d", int(SumMetric(ss, "done")), len(ss)),
			stats.Mean(Metric(ss, "step")), stats.Mean(Metric(ss, "afterHeal")),
			stats.Mean(Metric(ss, "probeFrac")))
	}
	rep := &Report{}
	rep.Add(tb)
	return rep, nil
}

// RunE20 — leader agreement with mobile nodes: candidates self-nominate
// with probability Θ(log n / n) and flood their random IDs under
// random-waypoint mobility. Mobility cuts both ways — links break mid-run,
// but node motion also ferries the rumor across temporary partitions — so
// agreement is measured as the fraction of nodes holding the true maximum
// ID when the budget expires. One trial = one mobility trace + one
// candidate draw + one flood run.
func RunE20(cfg Config) (*Report, error) {
	nodes := 64
	reps := 4
	if cfg.Scale == Full {
		nodes = 140
		reps = 10
	}
	speeds := []float64{0, 0.5, 2.0}
	levels := int(math.Ceil(math.Log2(float64(nodes + 1))))
	epochLen := 2 * levels
	epochs := 10
	budget := epochs * epochLen
	grid := NewGrid("E20")
	for _, speed := range speeds {
		speed := speed
		grid.AddReps(fmt.Sprintf("speed=%g", speed), reps, func(seed uint64) (Sample, error) {
			trng := xrand.New(seed)
			sched, err := gen.MobileUDG(nodes, epochs, epochLen, speed, trng)
			if err != nil {
				return Sample{}, err
			}
			g := sched.CSR(0).Graph()
			p := 2 * math.Log(float64(nodes)+1) / float64(nodes)
			sources := map[int]int64{}
			for len(sources) == 0 {
				for v := 0; v < nodes; v++ {
					if trng.Bernoulli(p) {
						sources[v] = int64(trng.Uint64() >> 16)
					}
				}
			}
			out, err := RunFlood(g, sched, sources, FloodConfig{Budget: budget, ProbeStep: -1, Seed: trng.Uint64()})
			if err != nil {
				return Sample{}, err
			}
			return Sample{Values: V(
				"unanimous", out.InformedEnd == nodes,
				"agreeFrac", float64(out.InformedEnd)/float64(nodes),
				"candidates", len(sources),
			)}, nil
		})
	}
	results, err := grid.Run(cfg)
	if err != nil {
		return nil, err
	}
	groups := ByGroup(results)
	tb := &stats.Table{
		Title:  "E20 — max-ID leader agreement under random-waypoint mobility (UDG)",
		Header: []string{"speed (ranges/epoch)", "trials", "unanimous", "mean agree frac", "mean candidates"},
	}
	for _, speed := range speeds {
		ss := groups[fmt.Sprintf("speed=%g", speed)]
		tb.AddRowf(speed, len(ss),
			fmt.Sprintf("%d/%d", int(SumMetric(ss, "unanimous")), len(ss)),
			stats.Mean(Metric(ss, "agreeFrac")), stats.Mean(Metric(ss, "candidates")))
	}
	rep := &Report{}
	rep.Add(tb)
	return rep, nil
}
