package serve

// Spec execution: each spec becomes an exp trial grid (one trial per seed
// replica) run through the same engines and protocols the CLIs use, and the
// samples aggregate into the stats.Table / exp.ExperimentResult shapes that
// `radionet-bench -json` already emits — one JSON schema across the bench
// CLI and the service.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/dyn"
	"repro/internal/exp"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mis"
	"repro/internal/radio"
	"repro/internal/stats"
)

// Result is the service's response record for one spec. Record reuses the
// exp.ExperimentResult schema (`radionet-bench -json` experiments[]), so
// bench tooling can consume service output unchanged.
type Result struct {
	SpecHash string               `json:"spec_hash"`
	Spec     Spec                 `json:"spec"`
	Record   exp.ExperimentResult `json:"record"`
}

// JSON marshals the result indented with a trailing newline. Struct-only
// encoding keeps the bytes deterministic — the property the cache-identity
// tests pin down.
func (r *Result) JSON() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// ExecOptions parameterizes ExecuteWith beyond the plain Execute path —
// the crash-safety and prefix-cache hooks the service threads through
// (DESIGN.md §8, §9). The zero value reproduces Execute's behavior.
type ExecOptions struct {
	// Parallel caps the trial-runner workers (≤ 0 selects 1).
	Parallel int
	// OnTrial observes progress as trials complete (exp.Config.OnTrialDone).
	OnTrial func(done, total int)
	// OnSample observes each freshly executed trial's sample with its
	// declaration index — the journaling hook (exp.Config.OnTrialSample).
	OnSample func(i int, s exp.Sample)
	// Prefilled maps trial indices to samples recovered from the journal;
	// those trials are installed without re-running.
	Prefilled map[int]exp.Sample
	// Cancelled is polled between trials; once true the run stops with
	// exp.ErrCancelled (drain, deadline, injected kill).
	Cancelled func() bool
	// OnCheckpoint, when non-nil and the spec is a dynamic flood, is the one
	// epoch-boundary hook (exp.FloodConfig.OnCheckpoint): it receives each
	// trial's engine checkpoints (trial declaration index, snapshot). A
	// non-nil return aborts the run — a run must not outpace its journal.
	// The service chains its consumers here, publish then journal: the
	// prefix-cache publication runs first and never returns an error (a
	// failed publication is only counted), then the job's journal append,
	// whose failure aborts. Chained consumers share the snapshot and must
	// not mutate it.
	OnCheckpoint func(trial int, cp *exp.FloodCheckpoint) error
	// ResumeFrom maps trial indices to snapshots: each listed trial starts
	// from its snapshot instead of step 0. A snapshot is either this spec's
	// own journal checkpoint (the trial interrupted mid-flight at a crash)
	// or a prefix-cache snapshot (DESIGN.md §9), which may come from a
	// *different* spec sharing this one's prefix — sound because the trial
	// seed and every epoch up to the snapshot step are prefix-determined.
	// Snapshots that don't fit the run (step past the budget, wrong node
	// count) are dropped, degrading to a cold trial.
	ResumeFrom map[int]*exp.FloodCheckpoint
	// Schedule, when non-nil and the spec is a flood, builds each trial's
	// topology schedule (spec, trial seed) in place of gen.ScheduleByName,
	// and must return exactly what ScheduleByName would — the prefix
	// cache's schedule memo (DESIGN.md §9).
	Schedule func(sp Spec, seed uint64) (*dyn.Schedule, error)
	// OnProbe, when non-nil and the spec is a flood, observes each trial's
	// engine-load samples (radio.Options.Probe contract: epoch boundaries
	// plus one final sample; the sample is reused — copy out what you keep).
	// The service feeds these into its /metrics engine gauges (DESIGN.md
	// §10). Trials may run in parallel; the hook must be concurrency-safe.
	OnProbe func(trial int, s *radio.ProbeSample)
}

// Execute canonicalizes sp and runs it: Reps independent trials fan out
// over min(parallel, Reps) runner workers (parallel ≤ 0 selects 1 — the
// service keeps per-job parallelism capped so concurrent jobs share cores
// fairly). onTrial, when non-nil, observes progress as trials complete.
// The returned Result is a pure function of the canonical spec: per-trial
// seeds derive from (Seed, GridID, index) and aggregation is in
// declaration order, so Execute(sp) is byte-stable across calls, worker
// counts, and hosts.
func Execute(sp Spec, parallel int, onTrial func(done, total int)) (*Result, error) {
	return ExecuteWith(sp, ExecOptions{Parallel: parallel, OnTrial: onTrial})
}

// ExecuteWith is Execute with the crash-safety hooks attached. Prefilled
// trials and checkpoint resume do not change the result bytes — the
// determinism contract makes a recovered run indistinguishable from an
// uninterrupted one.
func ExecuteWith(sp Spec, o ExecOptions) (*Result, error) {
	c, err := sp.Canonicalize()
	if err != nil {
		return nil, err
	}
	parallel := o.Parallel
	if parallel <= 0 {
		parallel = 1
	}
	grid := exp.NewGrid(c.GridID())
	tf := trialFunc(c)
	hooked := c.Algo == "flood" &&
		(o.OnCheckpoint != nil || o.OnProbe != nil || o.Schedule != nil || len(o.ResumeFrom) > 0)
	for i := 0; i < c.Reps; i++ {
		if !hooked {
			grid.Add(c.Algo, tf)
			continue
		}
		i := i
		grid.Add(c.Algo, func(seed uint64) (exp.Sample, error) {
			var onCkpt func(cp *exp.FloodCheckpoint) error
			if o.OnCheckpoint != nil {
				onCkpt = func(cp *exp.FloodCheckpoint) error { return o.OnCheckpoint(i, cp) }
			}
			var onProbe func(s *radio.ProbeSample)
			if o.OnProbe != nil {
				onProbe = func(s *radio.ProbeSample) { o.OnProbe(i, s) }
			}
			return floodTrial(c, seed, o.Schedule, onCkpt, onProbe, o.ResumeFrom[i])
		})
	}
	samples, err := grid.Run(exp.Config{
		Scale: exp.Quick, Seed: c.Seed, Parallel: parallel,
		OnTrialDone: o.OnTrial, OnTrialSample: o.OnSample,
		Prefilled: o.Prefilled, Cancelled: o.Cancelled,
	})
	if err != nil {
		return nil, fmt.Errorf("serve: %s: %w", c, err)
	}
	hash := c.Hash()
	return &Result{
		SpecHash: hash,
		Spec:     c,
		Record: exp.ExperimentResult{
			ID:     "serve:" + hash[:12],
			Title:  c.String(),
			Claim:  "determinism contract (DESIGN.md §3–§6): this record is a pure function of the spec",
			Tables: []*stats.Table{resultTable(c, samples)},
		},
	}, nil
}

// trialFunc builds the one-replica closure for a canonical spec. All
// randomness derives from the trial seed, per the runner contract.
func trialFunc(sp Spec) exp.TrialFunc {
	return func(seed uint64) (exp.Sample, error) {
		if sp.Algo == "flood" {
			return floodTrial(sp, seed, nil, nil, nil, nil)
		}
		if _, _, isPhy := gen.SplitPhySpec(sp.Graph); isPhy {
			return phyTrial(sp, seed)
		}
		g, err := gen.ByName(sp.Graph, sp.N, seed)
		if err != nil {
			return exp.Sample{}, err
		}
		src := sp.Source % g.N()
		switch sp.Algo {
		case "mis":
			out, err := mis.Run(g, mis.Params{}, seed)
			if err != nil {
				return exp.Sample{}, err
			}
			return exp.Sample{Values: exp.V(
				"mis_size", len(out.MIS),
				"steps", out.Steps,
				"rounds", out.Rounds,
				"completed", out.Completed,
				"valid", mis.Verify(g, out.MIS) == nil,
			)}, nil
		case "broadcast", "broadcast-all":
			params := core.Params{}
			if sp.Algo == "broadcast-all" {
				params.CenterMode = core.AllCenters
			}
			res, err := core.Broadcast(g, src, params, seed)
			if err != nil {
				return exp.Sample{}, err
			}
			return exp.Sample{Values: exp.V(
				"complete", res.CompleteStep,
				"total", res.TotalSteps,
				"main", res.MainSteps,
				"mis_steps", res.MISSteps,
				"mis_size", res.MISSize,
			)}, nil
		case "decay-broadcast":
			res, err := baseline.DecayBroadcast(g, src, 0, seed)
			if err != nil {
				return exp.Sample{}, err
			}
			return exp.Sample{Values: exp.V(
				"complete", res.CompleteStep,
				"levels", res.Levels,
				"transmissions", res.Transmissions,
			)}, nil
		case "election":
			er, err := core.LeaderElection(g, core.Params{}, seed)
			if err != nil {
				return exp.Sample{}, err
			}
			return exp.Sample{Values: exp.V(
				"complete", er.CompleteStep,
				"candidates", er.Candidates,
			)}, nil
		case "decay-election":
			er, err := baseline.DecayLeaderElection(g, 0, seed)
			if err != nil {
				return exp.Sample{}, err
			}
			return exp.Sample{Values: exp.V(
				"complete", er.CompleteStep,
				"candidates", er.Candidates,
			)}, nil
		default:
			return exp.Sample{}, badSpec("unknown algorithm %q", sp.Algo)
		}
	}
}

// phyTrial runs one replica of a phy: spec for the non-flood algorithms,
// through the same engine entry points the experiments use (mis.RunOnEngine,
// baseline.DecayBroadcastPHY).
func phyTrial(sp Spec, seed uint64) (exp.Sample, error) {
	g, model, err := gen.PhyDeployment(sp.Graph, sp.N, seed, sp.SINRParams())
	if err != nil {
		return exp.Sample{}, err
	}
	switch sp.Algo {
	case "mis":
		out, err := mis.RunOnEngine(g, mis.Params{}, seed, func(factory radio.Factory, opts radio.Options) (radio.Result, error) {
			opts.PHY = model
			return radio.Run(g, factory, opts)
		})
		if err != nil {
			return exp.Sample{}, err
		}
		return exp.Sample{Values: exp.V(
			"mis_size", len(out.MIS),
			"steps", out.Steps,
			"rounds", out.Rounds,
			"completed", out.Completed,
			"valid", mis.Verify(g, out.MIS) == nil,
		)}, nil
	case "decay-broadcast":
		res, err := baseline.DecayBroadcastPHY(g, model, sp.Source%g.N(), 0, seed)
		if err != nil {
			return exp.Sample{}, err
		}
		return exp.Sample{Values: exp.V(
			"complete", res.CompleteStep,
			"levels", res.Levels,
			"transmissions", res.Transmissions,
		)}, nil
	default:
		// Canonicalize admits only PhyAlgorithms; flood goes via floodTrial.
		return exp.Sample{}, badSpec("algorithm %q cannot run under physical-layer spec %q", sp.Algo, sp.Graph)
	}
}

// floodTrial runs the dynamic-topology flood (exp.RunFlood — the same
// runner E17–E21 and radionet-sim use) for one replica. On a phy: spec the
// schedule is static and the flood runs under the spec's reception model.
// schedule (nil = gen.ScheduleByName) builds the trial's schedule; onCkpt
// and resume thread the epoch-boundary hook (journal and prefix-cache
// publication) and the trial's resume snapshot into the flood run; both
// are nil outside journaled jobs and prefix runs (a static schedule has no
// epoch boundaries, so they are inert there). A resume snapshot that
// doesn't fit this run — captured past the budget (possible when it came
// from a longer sweep variant) or with a different node count (a corrupted
// or mismatched cache entry that slipped the checksum) — is dropped, not an
// error: the trial runs cold, which is always correct.
func floodTrial(sp Spec, seed uint64, schedule func(Spec, uint64) (*dyn.Schedule, error), onCkpt func(cp *exp.FloodCheckpoint) error, onProbe func(s *radio.ProbeSample), resume *exp.FloodCheckpoint) (exp.Sample, error) {
	var sched *dyn.Schedule
	var err error
	if schedule != nil {
		sched, err = schedule(sp, seed)
	} else {
		sched, err = gen.ScheduleByName(sp.Graph, sp.N, sp.Epochs, sp.EpochLen, sp.Rate, seed)
	}
	if err != nil {
		return exp.Sample{}, err
	}
	model, _, err := gen.SchedulePhyModel(sp.Graph, sched, sp.SINRParams())
	if err != nil {
		return exp.Sample{}, err
	}
	n := sched.N()
	budget := max(sched.LastStart()+sp.EpochLen, 4*sp.EpochLen)
	if resume != nil {
		if e := resume.Engine; e == nil || e.Step <= 0 || e.Step >= budget || len(e.Nodes) != n {
			resume = nil
		}
	}
	// The run follows sched; g only sizes the flood, so share epoch 0's
	// arrays rather than copying them into a mutable graph.
	g := graph.FromCSR(sched.CSR(0))
	out, err := exp.RunFlood(g, sched, map[int]int64{sp.Source % n: 1}, exp.FloodConfig{
		Budget: budget, ProbeStep: -1, Seed: seed, PHY: model,
		OnCheckpoint: onCkpt, Probe: onProbe, Resume: resume,
	})
	if err != nil {
		return exp.Sample{}, err
	}
	complete := out.Complete
	if complete < 0 {
		complete = budget
	}
	return exp.Sample{Values: exp.V(
		"completed", out.Complete >= 0,
		"complete", complete,
		"informed_end", out.InformedEnd,
		"n_nodes", n,
	)}, nil
}

// resultTable aggregates the replicas' samples: one row per metric in
// sorted name order, summarizing over Reps.
func resultTable(sp Spec, samples []exp.Sample) *stats.Table {
	seen := make(map[string]bool)
	var names []string
	for _, s := range samples {
		for name := range s.Values {
			if !seen[name] {
				seen[name] = true
				names = append(names, name)
			}
		}
	}
	sort.Strings(names)
	t := &stats.Table{
		Title:  fmt.Sprintf("%s on %s (n=%d, reps=%d, seed=%d)", sp.Algo, sp.Graph, sp.N, sp.Reps, sp.Seed),
		Header: []string{"metric", "n", "mean", "stddev", "ci95", "min", "max"},
	}
	for _, name := range names {
		xs := exp.Metric(samples, name)
		s := stats.Summarize(xs)
		t.AddRowf(name, s.N, s.Mean, s.StdDev,
			fmt.Sprintf("[%.4g, %.4g]", s.CI95Lo, s.CI95Hi),
			stats.Min(xs), stats.Max(xs))
	}
	return t
}
