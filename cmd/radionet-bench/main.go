// Command radionet-bench regenerates the experiment tables (E1–E16 from the
// paper plus the dynamic-topology suite E17–E20, see DESIGN.md §4–§5 and
// EXPERIMENTS.md).
//
// Usage:
//
//	radionet-bench [-scale quick|full] [-seed N] [-parallel P] [-run E5,E7] [-json results.json] [-list]
//	radionet-bench -engine-bench BENCH_engine.json [-bench-baseline old.json] [-bench-tolerance 0.25]
//
// With -bench-baseline, the freshly measured engine benchmarks are compared
// against the named report and the command fails when any benchmark's ns/op
// regressed beyond the tolerance — the CI bench-regression gate.
//
// With no -run flag every experiment runs in order. Each experiment is a
// grid of independent trials that the runner fans out over -parallel worker
// goroutines (default GOMAXPROCS); per-trial seeds are derived from
// (-seed, experiment, trial index), so the output is byte-identical for
// every -parallel value. Output is GitHub-flavored Markdown on stdout;
// -json additionally writes the same run as a structured JSON record
// (scale, seed, per-experiment tables) to the given file, so full-scale
// sweeps and Quick-scale CI runs share one code path and a machine-readable
// trajectory. With -engine-bench, the simulator engine micro-benchmarks run
// instead and a JSON report (ns/op, allocs/op, node-steps/s) is written to
// the given file so the perf trajectory is tracked across PRs.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/exp"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "radionet-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("radionet-bench", flag.ContinueOnError)
	scaleFlag := fs.String("scale", "quick", "experiment scale: quick or full")
	seed := fs.Uint64("seed", 1, "experiment seed")
	parallel := fs.Int("parallel", 0, "trial-runner workers (0 = GOMAXPROCS); output is identical for every value")
	runList := fs.String("run", "", "comma-separated experiment IDs (default: all)")
	jsonPath := fs.String("json", "", "also write structured results as JSON to this file")
	list := fs.Bool("list", false, "list experiments and exit")
	engineBench := fs.String("engine-bench", "", "run engine micro-benches and write the JSON report to this file")
	benchBaseline := fs.String("bench-baseline", "", "with -engine-bench: compare against this previously written report and fail on regression")
	benchTolerance := fs.Float64("bench-tolerance", 0.25, "with -bench-baseline: allowed fractional ns/op slowdown before failing")
	benchHuge := fs.Bool("bench-huge", false, "with -engine-bench: include the 10⁵–10⁶-node streaming-path rows (minutes of wall clock)")
	benchFilter := fs.String("bench-filter", "", "with -engine-bench: run only these benches (comma-separated exact names)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *engineBench != "" {
		report, err := measureEngineBench(*benchHuge, *benchFilter)
		if err != nil {
			return err
		}
		f, err := os.Create(*engineBench)
		if err != nil {
			return err
		}
		if err := writeEngineBench(report, f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "engine benchmarks written to %s\n", *engineBench)
		if err := checkTwins(report, windowMeasure(report), out); err != nil {
			return err
		}
		if *benchBaseline != "" {
			baseline, err := loadEngineBench(*benchBaseline)
			if err != nil {
				return err
			}
			if err := compareEngineBench(report, baseline, *benchTolerance, out); err != nil {
				return err
			}
			fmt.Fprintf(out, "bench-compare: within %.0f%% of %s\n", *benchTolerance*100, *benchBaseline)
		}
		return nil
	}
	if *benchBaseline != "" {
		return fmt.Errorf("-bench-baseline requires -engine-bench")
	}
	if *list {
		for _, e := range exp.Registry() {
			fmt.Fprintf(out, "%-4s %-40s %s\n", e.ID, e.Title, e.Claim)
		}
		return nil
	}
	var scale exp.Scale
	switch *scaleFlag {
	case "quick":
		scale = exp.Quick
	case "full":
		scale = exp.Full
	default:
		return fmt.Errorf("unknown scale %q (want quick or full)", *scaleFlag)
	}
	cfg := exp.Config{Scale: scale, Seed: *seed, Parallel: *parallel}
	var ids []string
	if *runList != "" {
		ids = strings.Split(*runList, ",")
	}
	exps, err := exp.Resolve(ids)
	if err != nil {
		return err
	}
	// Stream each experiment's section as it finishes — full-scale suites
	// run for minutes, and a late failure must not discard earlier tables
	// (nor, below, the JSON record of the experiments that did finish).
	res := &exp.Results{Scale: scale.String(), Seed: *seed, Experiments: []exp.ExperimentResult{}}
	writeJSON := func(partial bool) error {
		if *jsonPath == "" {
			return nil
		}
		raw, err := res.JSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonPath, raw, 0o644); err != nil {
			return err
		}
		// Status goes to stderr: stdout is the pure-Markdown stream.
		note := ""
		if partial {
			note = " (partial: suite failed)"
		}
		fmt.Fprintf(os.Stderr, "structured results written to %s%s\n", *jsonPath, note)
		return nil
	}
	for _, e := range exps {
		rep, err := e.Run(cfg)
		if err != nil {
			runErr := fmt.Errorf("%s: %w", e.ID, err)
			res.Failed = e.ID
			if jerr := writeJSON(true); jerr != nil {
				return fmt.Errorf("%w (and writing partial JSON failed: %v)", runErr, jerr)
			}
			return runErr
		}
		er := exp.ExperimentResult{ID: e.ID, Title: e.Title, Claim: e.Claim, Tables: rep.Tables}
		if _, err := io.WriteString(out, er.Markdown()); err != nil {
			return err
		}
		res.Experiments = append(res.Experiments, er)
	}
	return writeJSON(false)
}
