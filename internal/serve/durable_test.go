package serve

// Crash-safety suite (DESIGN.md §8): restart recovery through the durable
// store, kill-and-resume through the job journal and engine checkpoints,
// retry/backoff under injected store faults, job deadlines, and degraded
// (drain) mode. The chaos tests simulate kill -9 with Service.Kill — the
// journal freezes, in-flight runs abort at their next checkpoint, and the
// data dir is left exactly as a dead process would leave it.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/exp"
)

// waitForJournalOp polls the journal file until a record with the given op
// appears — the test's only window into how far a journaled job has gotten.
func waitForJournalOp(t *testing.T, path, op string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		b, err := os.ReadFile(path)
		if err == nil && strings.Contains(string(b), `"op":"`+op+`"`) {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("journal never recorded op %q", op)
}

// Satellite acceptance: a restarted server answers a previously computed
// spec as a byte-identical durable cache hit, without recomputing.
func TestServiceRestartServesDurableHits(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 2, CacheEntries: 8, DataDir: dir}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sp := Spec{Graph: "churn:grid", N: 25, Algo: "flood", Seed: 3, Reps: 2, Epochs: 3, EpochLen: 8, Rate: 0.2}
	want, _, st, err := s.simulate(context.Background(), sp)
	if err != nil || st != StatusMiss {
		t.Fatalf("first life: status %s err %v", st, err)
	}
	s.Close()

	s2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, hash, st2, err := s2.simulate(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	if st2 != StatusDurableHit {
		t.Fatalf("after restart: status %s, want durable hit", st2)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("restarted response differs from the first life's bytes")
	}
	stats := s2.Stats()
	if !stats.Durable || stats.Executions != 0 || stats.StoreHits != 1 {
		t.Fatalf("restart stats %+v, want durable, 0 executions, 1 store hit", stats)
	}
	// The durable hit populated the in-memory tier; the content-addressed
	// endpoint serves the same bytes.
	if _, _, st3, err := s2.simulate(context.Background(), sp); err != nil || st3 != StatusHit {
		t.Fatalf("second read after restart: status %s err %v, want memory hit", st3, err)
	}
	if rb, ok := s2.ResultByHash(hash); !ok || !bytes.Equal(rb, want) {
		t.Fatalf("ResultByHash after restart: ok=%v identical=%v", ok, bytes.Equal(rb, want))
	}
}

// Tentpole acceptance at the serve layer: kill a checkpointed flood run at
// the k-th checkpoint append, rebuild the recovery state the way journal
// replay does (completed trials prefilled, last checkpoint round-tripped
// through its JSONL encoding), and the recovered run is byte-identical to
// the uninterrupted one.
func TestExecuteWithCheckpointKillResumeByteIdentical(t *testing.T) {
	sp := Spec{Graph: "churn:grid", N: 36, Algo: "flood", Seed: 17, Reps: 2, Epochs: 6, EpochLen: 8, Rate: 0.5}
	fresh, err := Execute(sp, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := fresh.JSON()

	total := 0
	r, err := ExecuteWith(sp, ExecOptions{OnCheckpoint: func(int, *exp.FloodCheckpoint) error { total++; return nil }})
	if err != nil {
		t.Fatal(err)
	}
	if b, _ := r.JSON(); !bytes.Equal(b, want) {
		t.Fatal("checkpoint observation changed the result bytes")
	}
	if total == 0 {
		t.Fatal("no checkpoints fired; spec too small to exercise resume")
	}

	killErr := errors.New("power cut")
	for _, kill := range []int{1, total/2 + 1, total} {
		kill := kill
		t.Run(fmt.Sprintf("kill=%d_of_%d", kill, total), func(t *testing.T) {
			// First life: record what a journal would hold at the crash.
			trials := make(map[int]exp.Sample)
			var ckpt *exp.FloodCheckpoint
			ckptTrial, calls := 0, 0
			_, err := ExecuteWith(sp, ExecOptions{
				OnSample: func(i int, s exp.Sample) { trials[i] = s },
				OnCheckpoint: func(trial int, cp *exp.FloodCheckpoint) error {
					calls++
					if calls == kill {
						return killErr
					}
					line, err := json.Marshal(journalRecord{Op: opCkpt, Job: "job-1", Index: trial, Ckpt: cp})
					if err != nil {
						return err
					}
					var back journalRecord
					if err := json.Unmarshal(line, &back); err != nil {
						return err
					}
					ckptTrial, ckpt = back.Index, back.Ckpt
					return nil
				},
			})
			if !errors.Is(err, killErr) {
				t.Fatalf("killed run error = %v, want the injected kill", err)
			}
			// Replay rule: a checkpoint whose trial completed is stale.
			if ckpt != nil {
				if _, done := trials[ckptTrial]; done {
					ckpt = nil
				}
			}
			o := ExecOptions{Prefilled: trials}
			if ckpt != nil {
				o.ResumeFrom = map[int]*exp.FloodCheckpoint{ckptTrial: ckpt}
			}
			r2, err := ExecuteWith(sp, o)
			if err != nil {
				t.Fatal(err)
			}
			if got, _ := r2.JSON(); !bytes.Equal(got, want) {
				t.Fatalf("recovered run differs from uninterrupted run (prefilled %d trials, resume=%v)", len(trials), ckpt != nil)
			}
		})
	}
}

// Full-service chaos: kill the service mid-job (journal frozen, run aborted
// at its next checkpoint), reopen the same data dir, and the recovered job
// finishes under its original ID with byte-identical output. Journal
// appends are stretched by injected latency so the kill deterministically
// lands while trials are still outstanding.
func TestServiceKillMidJobRecoversByteIdentical(t *testing.T) {
	dir := t.TempDir()
	sp := Spec{Graph: "churn:grid", N: 36, Algo: "flood", Seed: 13, Reps: 3, Epochs: 6, EpochLen: 8, Rate: 0.5}
	fresh, err := Execute(sp, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := fresh.JSON()

	cfg := Config{Workers: 1, QueueDepth: 4, CacheEntries: 8, DataDir: dir, RetryBackoff: time.Millisecond}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := chaos.New()
	f.ArmDelay("serve.journal", 1, -1, 25*time.Millisecond) // skip the submit record, stall everything after
	s.SetFaults(f)
	v, err := s.SubmitJobCtx(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	waitForJournalOp(t, filepath.Join(dir, "journal.jsonl"), opTrial)
	s.Kill()

	s2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	st := s2.Stats()
	if st.RecoveredJobs != 1 || st.RecoveredTrials < 1 {
		t.Fatalf("recovery stats: jobs=%d trials=%d, want 1 job with ≥1 prefilled trial", st.RecoveredJobs, st.RecoveredTrials)
	}
	fin := waitForJob(t, s2, v.ID)
	if fin.State != JobDone || !fin.Recovered {
		t.Fatalf("recovered job %+v, want done and marked recovered", fin)
	}
	got, ok := s2.ResultByHash(fin.SpecHash)
	if !ok {
		t.Fatal("recovered result missing")
	}
	if !bytes.Equal(got, want) {
		t.Fatal("recovered result differs from uninterrupted run")
	}
}

// A transient store fault fails the attempt; the retry recomputes and
// succeeds.
func TestServiceJobRetriesTransientStoreFault(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Workers: 1, QueueDepth: 4, CacheEntries: 8, DataDir: dir, RetryBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	f := chaos.New()
	diskErr := errors.New("disk on fire")
	f.Arm("store.put", 0, 1, diskErr)
	s.SetFaults(f)

	v, err := s.SubmitJobCtx(context.Background(), Spec{Graph: "grid", N: 16, Algo: "mis", Seed: 5, Reps: 2})
	if err != nil {
		t.Fatal(err)
	}
	fin := waitForJob(t, s, v.ID)
	if fin.State != JobDone {
		t.Fatalf("job %+v, want done after retry", fin)
	}
	st := s.Stats()
	if st.Retries != 1 || f.Triggered("store.put") != 1 {
		t.Fatalf("retries=%d triggered=%d, want exactly one retry consuming the fault window", st.Retries, f.Triggered("store.put"))
	}
	if st.StorePuts != 1 {
		t.Fatalf("store puts = %d, want 1 (the retry's successful write)", st.StorePuts)
	}
}

// A persistent fault exhausts the retry budget: the job fails terminally
// with the error preserved, and the failure survives a restart.
func TestServiceJobFailureIsTerminalAndSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 1, QueueDepth: 4, CacheEntries: 8, DataDir: dir, JobRetries: 1, RetryBackoff: time.Millisecond}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := chaos.New()
	f.Arm("store.put", 0, -1, errors.New("disk gone"))
	s.SetFaults(f)
	v, err := s.SubmitJobCtx(context.Background(), Spec{Graph: "grid", N: 16, Algo: "mis", Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	fin := waitForJob(t, s, v.ID)
	if fin.State != JobFailed || !strings.Contains(fin.Error, "disk gone") {
		t.Fatalf("job %+v, want terminal failure carrying the cause", fin)
	}
	if got, want := s.Stats().Retries, uint64(1); got != want {
		t.Fatalf("retries = %d, want %d (JobRetries=1)", got, want)
	}
	s.Close()

	s2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if st := s2.Stats(); st.RecoveredJobs != 0 {
		t.Fatalf("failed job was re-enqueued: %+v", st)
	}
	back, ok := s2.Job(v.ID)
	if !ok || back.State != JobFailed || !strings.Contains(back.Error, "disk gone") {
		t.Fatalf("after restart: %+v ok=%v, want the preserved failure", back, ok)
	}
}

// JobTimeout bounds a job's wall clock; expiry is terminal (no retry).
func TestServiceJobDeadlineTerminal(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4, CacheEntries: 8, JobTimeout: 3 * time.Millisecond, RetryBackoff: time.Millisecond})
	defer s.Close()
	v, err := s.SubmitJobCtx(context.Background(), Spec{Graph: "grid", N: 400, Algo: "mis", Seed: 7, Reps: 64})
	if err != nil {
		t.Fatal(err)
	}
	fin := waitForJob(t, s, v.ID)
	if fin.State != JobFailed || !strings.Contains(fin.Error, "deadline") {
		t.Fatalf("job %+v, want deadline failure", fin)
	}
	if r := s.Stats().Retries; r != 0 {
		t.Fatalf("retries = %d, want 0 (deadline is terminal)", r)
	}
}

// Degraded mode: after shutdown begins, memory and durable hits are still
// served; anything needing computation gets ErrDraining.
func TestServiceDrainServesReadsRefusesCompute(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Workers: 2, CacheEntries: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	a := Spec{Graph: "grid", N: 16, Algo: "mis", Seed: 1}
	b := Spec{Graph: "grid", N: 16, Algo: "mis", Seed: 2}
	wantA, _, _, err := s.simulate(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := s.simulate(context.Background(), b); err != nil {
		t.Fatal(err) // evicts a from the 1-entry LRU; both are durable now
	}
	s.Close()
	if !s.Stats().Draining {
		t.Fatal("stats do not report draining")
	}
	if _, _, st, err := s.simulate(context.Background(), b); err != nil || st != StatusHit {
		t.Fatalf("drained memory hit: status %s err %v", st, err)
	}
	gotA, _, st, err := s.simulate(context.Background(), a)
	if err != nil || st != StatusDurableHit || !bytes.Equal(gotA, wantA) {
		t.Fatalf("drained durable hit: status %s err %v identical=%v", st, err, bytes.Equal(gotA, wantA))
	}
	if _, _, _, err := s.simulate(context.Background(), Spec{Graph: "grid", N: 16, Algo: "mis", Seed: 3}); !errors.Is(err, ErrDraining) {
		t.Fatalf("drained compute: %v, want ErrDraining", err)
	}
}

// SimulateCtx: an expired context short-circuits; a deadline mid-execution
// returns the context error while the computation itself completes and
// lands in the cache for the retry.
func TestServiceSimulateCtxDeadline(t *testing.T) {
	s := New(Config{Workers: 1, CacheEntries: 8})
	defer s.Close()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, _, err := s.SimulateCtx(cancelled, Spec{Graph: "grid", N: 16, Algo: "mis", Seed: 1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("expired context: %v, want context.Canceled", err)
	}

	release := make(chan struct{})
	var once sync.Once
	s.testHookExecuting = func(Spec) { once.Do(func() { <-release }) }
	sp := Spec{Graph: "grid", N: 16, Algo: "mis", Seed: 2}
	ctx, cancel2 := context.WithTimeout(context.Background(), 40*time.Millisecond)
	defer cancel2()
	_, _, _, err := s.SimulateCtx(ctx, sp)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("blocked request: %v, want context.DeadlineExceeded", err)
	}
	close(release)
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, _, st, err := s.simulate(context.Background(), sp); err == nil && st == StatusHit {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("detached computation never landed in the cache")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// SubmitJobCtx consults the durable tier before queueing, like simulate: after
// a restart empties the memory cache, a previously computed spec completes
// at submit time as a cache hit — even with the only worker busy and the
// queue full — without executing, and the content-addressed endpoint serves
// the first life's bytes.
func TestServiceSubmitJobDurableHitSkipsQueue(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 1, QueueDepth: 1, CacheEntries: 8, DataDir: dir}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sp := Spec{Graph: "grid", N: 16, Algo: "mis", Seed: 9}
	want, hash, _, err := s.simulate(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	running := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s2.testHookExecuting = func(Spec) {
		once.Do(func() { close(running) })
		<-release
	}
	defer func() {
		close(release)
		s2.Close()
	}()
	if _, err := s2.SubmitJobCtx(context.Background(), Spec{Graph: "grid", N: 16, Algo: "mis", Seed: 1}); err != nil {
		t.Fatal(err)
	}
	<-running // the only worker is now blocked inside job 1
	if _, err := s2.SubmitJobCtx(context.Background(), Spec{Graph: "grid", N: 16, Algo: "mis", Seed: 2}); err != nil {
		t.Fatal(err) // fills the queue
	}
	execs := s2.Stats().Executions
	v, err := s2.SubmitJobCtx(context.Background(), sp)
	if err != nil {
		t.Fatalf("durable spec with a full queue: %v, want an immediate hit", err)
	}
	if v.State != JobDone || !v.CacheHit {
		t.Fatalf("durable spec job %+v, want done with cache_hit", v)
	}
	if got := s2.Stats().Executions; got != execs {
		t.Fatalf("executions %d -> %d, want no new execution", execs, got)
	}
	got, ok := s2.ResultByHash(hash)
	if !ok || !bytes.Equal(got, want) {
		t.Fatalf("ResultByHash: found=%v identical=%v, want the first life's bytes", ok, bytes.Equal(got, want))
	}
}

// Corrupt durable entries degrade to recomputation through the service: the
// quarantine counter moves and the response is byte-identical.
func TestServiceCorruptDurableEntryRecomputed(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 1, CacheEntries: 1, DataDir: dir}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sp := Spec{Graph: "grid", N: 16, Algo: "mis", Seed: 9}
	want, hash, _, err := s.simulate(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	entry := filepath.Join(dir, "store", "results", hash)
	if err := os.WriteFile(entry, []byte("rotted bits"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, _, st, err := s2.simulate(context.Background(), sp)
	if err != nil || st != StatusMiss || !bytes.Equal(got, want) {
		t.Fatalf("corrupt entry: status %s err %v identical=%v, want recomputed miss", st, err, bytes.Equal(got, want))
	}
	stats := s2.Stats()
	if stats.StoreQuarantined != 1 || stats.Executions != 1 {
		t.Fatalf("stats %+v, want 1 quarantined + 1 recomputation", stats)
	}
}
