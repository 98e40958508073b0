// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload for a fixed time, checks every output against a computation made
// apart from the program, and prints each metric by name with its unit,
// the operations attempted and failed (with reasons), host facts, and — as
// the last line — one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {name: {"value": v, "unit": u}}}
//
// With -trace 0 the metrics are the end-to-end list of BENCHMARK.json,
// measured with tracing off. With -trace 1 the workload runs twice for half
// the time each, untraced then traced; the metrics are the per-layer list,
// and the text lines add the tracing overhead on every end-to-end metric.
//
// Run it from the repository root (it reads BENCHMARK.json there):
//
//	bash perfbench/run.sh --workload mis_sinr --seed 1 --seconds 30 --trace 0
//
// It exits nonzero on any failed check. The tolerated failures are the
// counted operations of the known faults, on fixed inputs sent in every
// round (see README.md): the non-independent MIS of mis_sinr, and the
// flood@udg n=4096 and mis@phy:sinr requests of serve_mix.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// config is what a workload receives: the seed its inputs derive from, how
// long to measure, and the tracer (nil when untraced).
type config struct {
	seed    uint64
	seconds float64
	procs   int
	tr      *tracer
	outDir  string
}

// outcome is what a workload reports.
type outcome struct {
	attempted, failed int
	reasons           map[string]int     // failure reason → count
	e2e               map[string]float64 // end-to-end metrics
	layer             map[string]float64 // per-layer metrics (traced runs)
	notes             []string           // extra text lines
}

func newOutcome() *outcome {
	return &outcome{reasons: map[string]int{}, e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (o *outcome) fail(reason string) {
	o.failed++
	o.reasons[reason]++
}

type workload func(cfg config) (*outcome, error)

var workloads = map[string]workload{
	"mis_sinr":     runMISSINR,
	"flood_stream": runFloodStream,
	"serve_mix":    runServeMix,
}

// metricDef is one metric row of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchFile struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func main() {
	name := flag.String("workload", "", "workload name (mis_sinr, flood_stream, serve_mix)")
	seed := flag.Uint64("seed", 1, "workload seed; every input derives from it")
	seconds := flag.Float64("seconds", 20, "measurement time")
	traced := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traced == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds float64, traced bool) error {
	wl, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	procs := runtime.NumCPU()
	runtime.GOMAXPROCS(procs)
	cfg := config{seed: seed, seconds: seconds, procs: procs, outDir: outDir()}
	hostFacts(procs)

	var out *outcome
	if !traced {
		out, err = wl(cfg)
		if err != nil {
			return err
		}
	} else {
		cfg.seconds = seconds / 2
		plain, err := wl(cfg)
		if err != nil {
			return err
		}
		cfg.tr = newTracer()
		out, err = wl(cfg)
		if err != nil {
			return err
		}
		path := filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", name, seed))
		if err := cfg.tr.write(path); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		fmt.Printf("spans %d written to %s\n", len(cfg.tr.spans), path)
		// Overhead is positive when tracing made the metric worse.
		for _, m := range bf.EndToEnd {
			u, t := plain.e2e[m.Name], out.e2e[m.Name]
			worse := t - u
			if m.Better == "higher" {
				worse = u - t
			}
			fmt.Printf("overhead %-16s untraced %.6g  traced %.6g  %s  worse by %+.2f%%\n", m.Name, u, t, m.Unit, pct(worse, u))
			out.layer["trace.overhead."+m.Name] = pct(worse, u)
		}
		out.attempted += plain.attempted
		out.failed += plain.failed
		for r, c := range plain.reasons {
			out.reasons[r] += c
		}
	}
	for _, line := range out.notes {
		fmt.Println(line)
	}
	defs, vals := bf.EndToEnd, out.e2e
	if traced {
		defs, vals = bf.PerLayer, out.layer
	}
	metrics := map[string]any{}
	for _, m := range defs {
		v, ok := vals[m.Name]
		if !ok {
			return fmt.Errorf("workload %s did not report metric %s", name, m.Name)
		}
		fmt.Printf("metric %-30s %14.6g %s\n", m.Name, v, m.Unit)
		metrics[m.Name] = map[string]any{"value": v, "unit": m.Unit}
	}
	fmt.Printf("operations %s attempted %d failed %d\n", name, out.attempted, out.failed)
	reasons := make([]string, 0, len(out.reasons))
	for r := range out.reasons {
		reasons = append(reasons, r)
	}
	sort.Strings(reasons)
	for _, r := range reasons {
		fmt.Printf("failure %d× %s\n", out.reasons[r], r)
	}
	line, err := json.Marshal(map[string]any{
		"correct": true, "attempted": out.attempted, "failed": out.failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// hostFacts prints what a reader needs to compare figures across hosts.
func hostFacts(procs int) {
	host, _ := os.Hostname()
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(l, "model name") {
				cpu = strings.TrimSpace(l[strings.Index(l, ":")+1:])
				break
			}
		}
	}
	fmt.Printf("host %s nproc %d GOMAXPROCS %d go %s %s/%s cpu %q date %s\n",
		host, procs, runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, cpu,
		time.Now().UTC().Format(time.RFC3339))
}

// outDir is where the run writes its scratch files (the serve data
// directories and the span dump): the build directory the wrapper script
// uses, inside the checkout.
func outDir() string {
	if d := os.Getenv("PERFBENCH_OUT"); d != "" {
		return d
	}
	return ".bench_build"
}

func pct(d, base float64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * d / base
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// fits reports whether another whole operation fits the measurement time,
// taking the last one's duration as the estimate, so a run ends close to
// its time instead of overrunning by up to one operation.
func fits(t0 time.Time, seconds float64, last time.Duration) bool {
	return (time.Since(t0) + last).Seconds() <= seconds
}
