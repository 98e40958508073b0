package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func report(pairs ...any) EngineBenchReport {
	var r EngineBenchReport
	for i := 0; i < len(pairs); i += 2 {
		r.Benchmarks = append(r.Benchmarks, EngineBenchResult{
			Name:    pairs[i].(string),
			NsPerOp: pairs[i+1].(float64),
		})
	}
	return r
}

func withAllocs(r EngineBenchReport, allocs ...int64) EngineBenchReport {
	for i := range r.Benchmarks {
		r.Benchmarks[i].AllocsPerOp = allocs[i]
	}
	return r
}

func TestCompareEngineBench(t *testing.T) {
	baseline := report("a", 1000.0, "b", 5000.0)
	var log bytes.Buffer

	// Within tolerance (including mild regression and a speedup) passes.
	if err := compareEngineBench(report("a", 1200.0, "b", 4000.0), baseline, 0.25, &log); err != nil {
		t.Fatalf("within-tolerance compare failed: %v", err)
	}
	// A >25% regression fails and names the offender.
	err := compareEngineBench(report("a", 1300.0, "b", 5000.0), baseline, 0.25, &log)
	if err == nil || !strings.Contains(err.Error(), "a:") {
		t.Fatalf("want regression error naming bench a, got %v", err)
	}
	// The allocs/op gate is hardware-independent and exact: a zero-alloc
	// step loop that starts allocating fails even when ns/op stays put, +1
	// alloc/op over the baseline fails, and a decrease still passes
	// (shrinking is not a regression).
	allocBase := withAllocs(report("zero", 1000.0, "three", 5000.0), 0, 3)
	err = compareEngineBench(withAllocs(report("zero", 1000.0, "three", 5000.0), 1, 3), allocBase, 0.25, &log)
	if err == nil || !strings.Contains(err.Error(), "zero:") || !strings.Contains(err.Error(), "allocs/op") {
		t.Fatalf("want allocs regression error naming zero, got %v", err)
	}
	err = compareEngineBench(withAllocs(report("zero", 1000.0, "three", 5000.0), 0, 4), allocBase, 0.25, &log)
	if err == nil || !strings.Contains(err.Error(), "alloc-exact") {
		t.Fatalf("want alloc-exact regression error, got %v", err)
	}
	if err := compareEngineBench(withAllocs(report("zero", 1000.0, "three", 5000.0), 0, 2), allocBase, 0.25, &log); err != nil {
		t.Fatalf("alloc decrease must pass: %v", err)
	}

	// Benchmarks missing from the baseline never fail.
	if err := compareEngineBench(report("brand-new", 1e9), baseline, 0.25, &log); err != nil {
		t.Fatalf("new benchmark must not fail the gate: %v", err)
	}
	if !strings.Contains(log.String(), "no baseline") {
		t.Fatal("new benchmark should be noted in the log")
	}
}

// withBytesPerNode sets the memory fields on a report's rows (0 = the row
// doesn't carry them, as in baselines written before the field existed).
func withBytesPerNode(r EngineBenchReport, bpn ...float64) EngineBenchReport {
	for i := range r.Benchmarks {
		r.Benchmarks[i].BytesPerNode = bpn[i]
		r.Benchmarks[i].EngineBytes = int64(bpn[i] * 1000)
	}
	return r
}

func TestCompareBytesPerNode(t *testing.T) {
	var log bytes.Buffer
	base := withBytesPerNode(report("huge", 1000.0, "old", 1000.0), 200.0, 0)

	// Growth inside the 25% band passes; shrinking passes.
	if err := compareEngineBench(withBytesPerNode(report("huge", 1000.0, "old", 1000.0), 240.0, 0), base, 0.25, &log); err != nil {
		t.Fatalf("within-band bytes/node failed: %v", err)
	}
	if err := compareEngineBench(withBytesPerNode(report("huge", 1000.0, "old", 1000.0), 150.0, 0), base, 0.25, &log); err != nil {
		t.Fatalf("bytes/node decrease failed: %v", err)
	}
	// >25% growth fails and names the metric.
	err := compareEngineBench(withBytesPerNode(report("huge", 1000.0, "old", 1000.0), 260.0, 0), base, 0.25, &log)
	if err == nil || !strings.Contains(err.Error(), "bytes/node") {
		t.Fatalf("want bytes/node regression error, got %v", err)
	}
	// A baseline without the field (row "old", pre-field report) tolerates
	// any fresh value — no flag day — and a fresh run that skipped the
	// measurement never trips on a baseline that has it.
	if err := compareEngineBench(withBytesPerNode(report("huge", 1000.0, "old", 1000.0), 240.0, 9999.0), base, 0.25, &log); err != nil {
		t.Fatalf("field absent in baseline must not gate: %v", err)
	}
	if err := compareEngineBench(withBytesPerNode(report("huge", 1000.0, "old", 1000.0), 0, 0), base, 0.25, &log); err != nil {
		t.Fatalf("field absent in fresh run must not gate: %v", err)
	}
}

func TestLoadEngineBenchErrors(t *testing.T) {
	if _, err := loadEngineBench(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("want error for missing file")
	}
	empty := filepath.Join(t.TempDir(), "empty.json")
	if err := os.WriteFile(empty, []byte(`{"benchmarks":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadEngineBench(empty); err == nil {
		t.Fatal("want error for benchmark-free report")
	}
}

// TestCommittedBaselineLoads guards the repo's committed report: the CI
// bench-regression job is only as good as the baseline it diffs against.
func TestCommittedBaselineLoads(t *testing.T) {
	rep, err := loadEngineBench(filepath.Join("..", "..", "BENCH_engine.json"))
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, b := range rep.Benchmarks {
		if b.NsPerOp <= 0 {
			t.Fatalf("committed baseline has non-positive ns/op for %s", b.Name)
		}
		names[b.Name] = true
	}
	for _, spec := range engineBenchSpecs {
		if !names[spec.name] {
			t.Errorf("committed BENCH_engine.json is missing %s — regenerate it with -engine-bench", spec.name)
		}
	}
}

func TestBenchBaselineRequiresEngineBench(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-bench-baseline", "x.json"}, &buf); err == nil {
		t.Fatal("want error when -bench-baseline is given without -engine-bench")
	}
}

// TestCheckObsOverheadMinOfPairs pins the _obs gate's statistic: a noisy
// first pair alone does not fail it, a cost that shows in every pair does,
// and the pairs are measured interleaved, alternating which side goes
// first.
func TestCheckObsOverheadMinOfPairs(t *testing.T) {
	seq := func(ns map[string][]float64, calls *[]string) func(string) (float64, error) {
		return func(name string) (float64, error) {
			*calls = append(*calls, name)
			v := ns[name][0]
			ns[name] = ns[name][1:]
			return v, nil
		}
	}
	var log bytes.Buffer
	// The report's pair reads +20% (a noise spike); the re-measured pairs
	// are within 1%, so the minimum passes.
	var calls []string
	noisy := map[string][]float64{"x": {1010, 1000, 1005, 1002}, "x_obs": {1008, 1003, 1001, 1009}}
	if err := checkObsOverhead(report("x", 1000.0, "x_obs", 1200.0), seq(noisy, &calls), &log); err != nil {
		t.Fatalf("noise spike failed the gate: %v", err)
	}
	if len(calls) != 2*(obsOverheadPairs-1) {
		t.Fatalf("%d re-measurements, want %d", len(calls), 2*(obsOverheadPairs-1))
	}
	for i := 0; i+1 < len(calls); i += 2 {
		if calls[i] == calls[i+1] || (i >= 2 && calls[i] == calls[i-2]) {
			t.Fatalf("pairs not interleaved in alternating order: %v", calls)
		}
	}
	// A real 5% probe cost shows in every pair and fails.
	calls = nil
	leaky := map[string][]float64{"x": {1000, 1000, 1000, 1000}, "x_obs": {1050, 1050, 1050, 1050}}
	if err := checkObsOverhead(report("x", 1000.0, "x_obs", 1050.0), seq(leaky, &calls), &log); err == nil || !strings.Contains(err.Error(), "x_obs") {
		t.Fatalf("want an overhead error naming x_obs, got %v", err)
	}
	// Rows without an _obs twin are not re-measured.
	calls = nil
	if err := checkObsOverhead(report("x", 1000.0, "y", 9000.0), seq(nil, &calls), &log); err != nil || len(calls) != 0 {
		t.Fatalf("untwinned rows: err %v, %d measurements", err, len(calls))
	}
}
