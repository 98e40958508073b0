package serve

// Observability acceptance (DESIGN.md §10): the /metrics exposition
// reflects a known request sequence exactly, trace IDs survive the full
// HTTP → journal → structured-log path, and /v1/stats snapshots are
// mutually consistent.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"log/slog"
)

// metricValue extracts the value of the series whose line starts with
// name{ and contains every given label pair, failing if absent.
func metricValue(t *testing.T, exposition, name string, labels ...string) string {
	t.Helper()
	sc := bufio.NewScanner(strings.NewReader(exposition))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if !strings.HasPrefix(rest, "{") && !strings.HasPrefix(rest, " ") {
			continue // longer metric name sharing the prefix
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(line, l) {
				ok = false
				break
			}
		}
		if ok {
			fields := strings.Fields(line)
			return fields[len(fields)-1]
		}
	}
	t.Fatalf("no series %s%v in exposition:\n%s", name, labels, exposition)
	return ""
}

// Acceptance: one miss plus two hits on /v1/simulate yield exactly these
// counter values on /metrics — the exposition is accounting, not sampling.
func TestMetricsEndpointExactCounters(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, CacheEntries: 8})
	// A flood spec: the flood path arms radio.Options.Probe, so the engine
	// gauges are exercised along with the request counters.
	body := `{"graph":"grid","n":25,"algo":"flood","seed":7}`
	for i, want := range []string{"MISS", "HIT", "HIT"} {
		r, b := post(t, ts.URL+"/v1/simulate", body)
		if r.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, r.StatusCode, b)
		}
		if got := r.Header.Get("X-Cache"); got != want {
			t.Fatalf("request %d: X-Cache %q, want %q", i, got, want)
		}
	}
	r, raw := get(t, ts.URL+"/metrics")
	if r.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", r.StatusCode)
	}
	if ct := r.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics Content-Type %q", ct)
	}
	exp := string(raw)
	checks := []struct {
		name   string
		labels []string
		want   string
	}{
		{"serve_cache_requests_total", []string{`tier="miss"`}, "1"},
		{"serve_cache_requests_total", []string{`tier="memory"`}, "2"},
		{"serve_http_requests_total", []string{`route="/v1/simulate"`, `code="200"`}, "3"},
		{"serve_http_request_seconds_count", []string{`route="/v1/simulate"`}, "3"},
		{"serve_executions_total", nil, "1"},
		{"serve_job_queue_depth", nil, "0"},
	}
	for _, c := range checks {
		if got := metricValue(t, exp, c.name, c.labels...); got != c.want {
			t.Errorf("%s%v = %s, want %s", c.name, c.labels, got, c.want)
		}
	}
	// The single execution probed the engine at least once (the final
	// sample), populating the engine gauges.
	if got := metricValue(t, exp, "serve_engine_probes_total"); got == "0" {
		t.Error("serve_engine_probes_total = 0, want > 0")
	}
	// The latency histogram must expose the full bucket/sum/count triple.
	for _, frag := range []string{
		"serve_http_request_seconds_bucket{route=\"/v1/simulate\",le=\"+Inf\"} 3",
		"serve_http_request_seconds_sum{route=\"/v1/simulate\"}",
		"serve_uptime_seconds",
	} {
		if !strings.Contains(exp, frag) {
			t.Errorf("exposition missing %q", frag)
		}
	}
}

// Acceptance: a trace ID supplied at HTTP entry is echoed on the response,
// recorded on the journal submit record, and present in the structured
// logs of the job's lifecycle — end to end, one ID.
func TestTraceEndToEndThroughJournalAndLogs(t *testing.T) {
	const trace = "00112233445566778899aabbccddeeff"
	var logBuf bytes.Buffer
	dir := t.TempDir()
	s, err := Open(Config{
		Workers: 2, CacheEntries: 8, DataDir: dir,
		Logger: slog.New(slog.NewJSONHandler(&logBuf, &slog.HandlerOptions{Level: slog.LevelDebug})),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := newHTTPServer(t, s)

	req, err := http.NewRequest("POST", ts.URL+"/v1/jobs",
		strings.NewReader(`{"graph":"grid","n":25,"algo":"mis","seed":9,"reps":2}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Trace-Id", trace)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Trace-Id"); got != trace {
		t.Fatalf("response X-Trace-Id %q, want %q", got, trace)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		r, b := get(t, ts.URL+"/v1/jobs/"+v.ID)
		if r.StatusCode != http.StatusOK {
			t.Fatalf("poll status %d", r.StatusCode)
		}
		var jv JobView
		if err := json.Unmarshal(b, &jv); err != nil {
			t.Fatal(err)
		}
		if jv.State == JobDone {
			break
		}
		if jv.State == JobFailed {
			t.Fatalf("job failed: %s", jv.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job not done: %s", jv.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	s.Close()

	// Journal: the submit record carries the trace.
	raw, err := os.ReadFile(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	foundSubmit := false
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		var rec journalRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			continue
		}
		if rec.Op == opSubmit && rec.Job == v.ID {
			foundSubmit = true
			if rec.Trace != trace {
				t.Fatalf("journal submit trace %q, want %q", rec.Trace, trace)
			}
		}
	}
	if !foundSubmit {
		t.Fatal("no submit record for the job in the journal")
	}

	// Logs: both the HTTP request line and the job-done line carry it.
	var sawRequest, sawDone bool
	for _, line := range strings.Split(logBuf.String(), "\n") {
		if line == "" {
			continue
		}
		var entry map[string]any
		if err := json.Unmarshal([]byte(line), &entry); err != nil {
			t.Fatalf("non-JSON log line %q: %v", line, err)
		}
		if entry["trace"] != trace {
			continue
		}
		switch entry["msg"] {
		case "request":
			if entry["path"] == "/v1/jobs" {
				sawRequest = true
			}
		case "job done":
			if entry["job"] == v.ID {
				sawDone = true
			}
		}
	}
	if !sawRequest || !sawDone {
		t.Fatalf("trace not propagated to logs: request=%v done=%v\n%s",
			sawRequest, sawDone, logBuf.String())
	}
}

// newHTTPServer is newTestServer for an already-constructed Service.
func newHTTPServer(t *testing.T, s *Service) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(NewHandler(s))
	t.Cleanup(ts.Close)
	return ts
}

// Acceptance: the /v1/stats job fields are read under one lock — a running
// job shows up as in-flight, not queued, and uptime is populated.
func TestStatsConsistentSnapshot(t *testing.T) {
	s := New(Config{Workers: 1, CacheEntries: 8})
	defer s.Close()
	started := make(chan struct{})
	release := make(chan struct{})
	s.testHookExecuting = func(Spec) {
		close(started)
		<-release
	}
	if _, err := s.SubmitJobCtx(context.Background(), Spec{Graph: "grid", N: 25, Algo: "mis", Seed: 3}); err != nil {
		t.Fatal(err)
	}
	<-started
	st := s.Stats()
	close(release)
	if st.InFlightJobs != 1 {
		t.Fatalf("InFlightJobs = %d, want 1", st.InFlightJobs)
	}
	if st.QueueLen != 0 {
		t.Fatalf("QueueLen = %d, want 0 (the job is running, not queued)", st.QueueLen)
	}
	if st.Jobs != 1 {
		t.Fatalf("Jobs = %d, want 1", st.Jobs)
	}
	if st.UptimeSeconds <= 0 {
		t.Fatalf("UptimeSeconds = %v, want > 0", st.UptimeSeconds)
	}
}
