package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// Acceptance: the cached response is byte-identical to a fresh
// recomputation, across the whole spec grid.
func TestServiceCacheMatchesFreshRecomputation(t *testing.T) {
	s := New(Config{Workers: 2, CacheEntries: 32})
	defer s.Close()
	for _, sp := range specGrid() {
		fresh, err := Execute(sp, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.JSON()
		if err != nil {
			t.Fatal(err)
		}
		got1, _, st1, err := s.simulate(context.Background(), sp)
		if err != nil {
			t.Fatal(err)
		}
		if st1 != StatusMiss {
			t.Fatalf("%s: first request status %s, want miss", sp.Algo, st1)
		}
		got2, _, st2, err := s.simulate(context.Background(), sp)
		if err != nil {
			t.Fatal(err)
		}
		if st2 != StatusHit {
			t.Fatalf("%s: second request status %s, want hit", sp.Algo, st2)
		}
		if !bytes.Equal(want, got1) || !bytes.Equal(want, got2) {
			t.Fatalf("%s on %s: cached/served bytes differ from fresh recomputation", sp.Algo, sp.Graph)
		}
	}
}

// Acceptance: N concurrent identical requests execute the simulation
// exactly once. The test hook holds the first execution open until every
// request has been issued, so coalescing is deterministic.
func TestServiceSingleflightExecutesOnce(t *testing.T) {
	s := New(Config{Workers: 2, CacheEntries: 8})
	defer s.Close()
	const concurrent = 8
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.testHookExecuting = func(Spec) {
		once.Do(func() { close(entered) })
		<-release
	}
	sp := Spec{Graph: "grid", N: 25, Algo: "mis", Seed: 11, Reps: 2}

	results := make([][]byte, concurrent)
	errs := make([]error, concurrent)
	var wg sync.WaitGroup
	for i := 0; i < concurrent; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], _, _, errs[i] = s.simulate(context.Background(), sp)
		}(i)
	}
	<-entered // one goroutine is executing; the rest will coalesce
	// Give the remaining goroutines time to reach the singleflight wait.
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()

	for i := 0; i < concurrent; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if !bytes.Equal(results[0], results[i]) {
			t.Fatalf("request %d received different bytes", i)
		}
	}
	if execs := s.Stats().Executions; execs != 1 {
		t.Fatalf("executions = %d, want exactly 1 for %d concurrent identical requests", execs, concurrent)
	}
}

// Backpressure: with one worker held open and a depth-1 queue, a third job
// must be rejected with ErrQueueFull.
func TestServiceQueueFull(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1, CacheEntries: 8})
	running := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.testHookExecuting = func(Spec) {
		once.Do(func() { close(running) })
		<-release
	}
	defer func() {
		close(release)
		s.Close()
	}()

	if _, err := s.SubmitJobCtx(context.Background(), Spec{Graph: "grid", N: 16, Algo: "mis", Seed: 1}); err != nil {
		t.Fatal(err)
	}
	<-running // worker is now blocked inside job 1
	if _, err := s.SubmitJobCtx(context.Background(), Spec{Graph: "grid", N: 16, Algo: "mis", Seed: 2}); err != nil {
		t.Fatal(err) // fills the queue
	}
	_, err := s.SubmitJobCtx(context.Background(), Spec{Graph: "grid", N: 16, Algo: "mis", Seed: 3})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit: %v, want ErrQueueFull", err)
	}
}

func waitForJob(t *testing.T, s *Service, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		v, ok := s.Job(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if v.State == JobDone || v.State == JobFailed {
			return v
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return JobView{}
}

func TestServiceAsyncJobLifecycle(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 8, CacheEntries: 8})
	defer s.Close()
	sp := Spec{Graph: "grid", N: 25, Algo: "mis", Seed: 21, Reps: 3}
	v, err := s.SubmitJobCtx(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	if v.State != JobQueued || v.TrialsTotal != 3 {
		t.Fatalf("submitted view %+v", v)
	}
	fin := waitForJob(t, s, v.ID)
	if fin.State != JobDone || fin.TrialsDone != 3 || fin.Result == "" {
		t.Fatalf("final view %+v", fin)
	}
	data, ok := s.ResultByHash(fin.SpecHash)
	if !ok {
		t.Fatal("result missing from cache after job done")
	}
	fresh, err := Execute(sp, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := fresh.JSON()
	if !bytes.Equal(want, data) {
		t.Fatal("async result differs from fresh recomputation")
	}

	// A duplicate submission is satisfied from the cache without queueing.
	v2, err := s.SubmitJobCtx(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	if v2.State != JobDone || !v2.CacheHit {
		t.Fatalf("duplicate job view %+v, want immediate cache-hit completion", v2)
	}
	if execs := s.Stats().Executions; execs != 1 {
		t.Fatalf("executions = %d, want 1", execs)
	}
}

func TestServiceBadSpecAndUnknowns(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	if _, _, _, err := s.simulate(context.Background(), Spec{Graph: "nosuch"}); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("simulate bad spec: %v", err)
	}
	if _, err := s.SubmitJobCtx(context.Background(), Spec{Algo: "nosuch"}); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("SubmitJobCtx bad spec: %v", err)
	}
	if _, ok := s.Job("job-999"); ok {
		t.Fatal("unknown job resolved")
	}
	if _, ok := s.ResultByHash("deadbeef"); ok {
		t.Fatal("unknown result resolved")
	}
}

// Job records must not accumulate unboundedly in a long-lived service:
// past MaxJobs, the oldest terminal records are evicted FIFO.
func TestServiceJobRetentionBounded(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 8, CacheEntries: 16, MaxJobs: 3})
	defer s.Close()
	var ids []string
	for seed := uint64(1); seed <= 6; seed++ {
		v, err := s.SubmitJobCtx(context.Background(), Spec{Graph: "grid", N: 16, Algo: "mis", Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		waitForJob(t, s, v.ID)
		ids = append(ids, v.ID)
	}
	if jobs := s.Stats().Jobs; jobs > 3 {
		t.Fatalf("retained %d job records, want ≤ MaxJobs=3", jobs)
	}
	if _, ok := s.Job(ids[0]); ok {
		t.Fatal("oldest job record survived past the retention bound")
	}
	if _, ok := s.Job(ids[len(ids)-1]); !ok {
		t.Fatal("newest job record evicted")
	}
}

// /v1/stats must not double-count: one cold request is exactly one miss
// (simulate's lookup), not a second one from the internal post-slot
// re-check, and a repeat is exactly one hit.
func TestServiceStatsCountRequestLookupsOnly(t *testing.T) {
	s := New(Config{Workers: 1, CacheEntries: 8})
	defer s.Close()
	sp := Spec{Graph: "grid", N: 16, Algo: "mis", Seed: 31}
	if _, _, _, err := s.simulate(context.Background(), sp); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.CacheMisses != 1 || st.CacheHits != 0 || st.Executions != 1 {
		t.Fatalf("after cold request: %+v, want 1 miss / 0 hits / 1 execution", st)
	}
	if _, _, _, err := s.simulate(context.Background(), sp); err != nil {
		t.Fatal(err)
	}
	st = s.Stats()
	if st.CacheMisses != 1 || st.CacheHits != 1 || st.Executions != 1 {
		t.Fatalf("after repeat: %+v, want 1 miss / 1 hit / 1 execution", st)
	}
}

// The sync path has admission control: once Workers+QueueDepth non-hit
// requests are in flight, further distinct-spec requests get ErrBusy
// instead of parking unboundedly on the execution semaphore.
func TestServiceSyncAdmissionBounded(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1, CacheEntries: 8}) // limit = 2
	release := make(chan struct{})
	var relOnce sync.Once
	unblock := func() { relOnce.Do(func() { close(release) }) }
	entered := make(chan struct{}, 8)
	s.testHookExecuting = func(Spec) {
		entered <- struct{}{}
		<-release
	}
	defer func() {
		unblock()
		s.Close()
	}()

	errc := make(chan error, 2)
	for seed := uint64(1); seed <= 2; seed++ {
		sp := Spec{Graph: "grid", N: 16, Algo: "mis", Seed: seed}
		go func() {
			_, _, _, err := s.simulate(context.Background(), sp)
			errc <- err
		}()
	}
	<-entered // request 1 holds the only slot; request 2 is parked
	// Wait until the second request is admitted (pending count = limit).
	deadline := time.Now().Add(10 * time.Second)
	for s.syncPending.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("second request never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	_, _, _, err := s.simulate(context.Background(), Spec{Graph: "grid", N: 16, Algo: "mis", Seed: 3})
	if !errors.Is(err, ErrBusy) {
		t.Fatalf("over-limit request: %v, want ErrBusy", err)
	}
	// A cache hit must bypass admission control entirely: nothing is
	// cached yet, so prove it after release below.
	unblock()
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil {
			t.Fatalf("admitted request failed: %v", err)
		}
	}
	s.testHookExecuting = nil
	if _, _, st, err := s.simulate(context.Background(), Spec{Graph: "grid", N: 16, Algo: "mis", Seed: 1}); err != nil || st != StatusHit {
		t.Fatalf("post-release cache hit: status %s err %v", st, err)
	}
}

// Close must be bounded by in-flight work: queued-but-unstarted jobs are
// failed with ErrClosed, not drained through the engines.
func TestServiceCloseAbandonsQueuedJobs(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4, CacheEntries: 8})
	running := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.testHookExecuting = func(Spec) {
		once.Do(func() { close(running) })
		<-release
	}
	v1, err := s.SubmitJobCtx(context.Background(), Spec{Graph: "grid", N: 16, Algo: "mis", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	<-running // worker blocked inside job 1
	v2, err := s.SubmitJobCtx(context.Background(), Spec{Graph: "grid", N: 16, Algo: "mis", Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	// Close is waiting on the in-flight job; release it.
	time.Sleep(20 * time.Millisecond)
	close(release)
	select {
	case <-closed:
	case <-time.After(30 * time.Second):
		t.Fatal("Close hung — queued jobs were drained instead of abandoned")
	}
	if j1, _ := s.Job(v1.ID); j1.State != JobDone {
		t.Fatalf("in-flight job final state %s, want done", j1.State)
	}
	j2, _ := s.Job(v2.ID)
	if j2.State != JobFailed || !strings.Contains(j2.Error, "closed") {
		t.Fatalf("queued job final state %+v, want failed with closed error", j2)
	}
}

// If the result lands while a request waits for its execution slot, the
// response must be labeled a hit (served from cache, nothing executed),
// not a miss.
func TestServiceSlotWaitCacheLandingIsHit(t *testing.T) {
	s := New(Config{Workers: 1, CacheEntries: 8})
	defer s.Close()
	sp := mustCanon(t, Spec{Graph: "grid", N: 16, Algo: "mis", Seed: 41})
	fresh, err := Execute(sp, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := fresh.JSON()
	b, fromCache, _, err := s.execute(context.Background(), sp, sp.Hash(), "", ExecOptions{})
	if err != nil || fromCache {
		t.Fatalf("cold execute: fromCache=%v err=%v", fromCache, err)
	}
	if !bytes.Equal(b, want) {
		t.Fatal("executed bytes differ")
	}
	// The cache now holds the result: the peek path must report it.
	b2, fromCache, _, err := s.execute(context.Background(), sp, sp.Hash(), "", ExecOptions{})
	if err != nil || !fromCache || !bytes.Equal(b2, want) {
		t.Fatalf("warm execute: fromCache=%v err=%v identical=%v", fromCache, err, bytes.Equal(b2, want))
	}
	if execs := s.Stats().Executions; execs != 1 {
		t.Fatalf("executions = %d, want 1", execs)
	}
}

func TestServiceSubmitAfterClose(t *testing.T) {
	s := New(Config{Workers: 1})
	s.Close()
	if _, err := s.SubmitJobCtx(context.Background(), Spec{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v, want ErrClosed", err)
	}
	s.Close() // idempotent
}

// A sync request and a job for the same spec share one execution whichever
// arrives first: both callers run through the one execution path, keyed by
// the same singleflight. Both bodies are byte-identical to a fresh
// Execute. The service is durable, so on the dynamic flood the job's
// journal and the prefix publication are both armed on the boundary hook.
func TestServiceSyncAndJobCoalesce(t *testing.T) {
	specs := []Spec{
		{Graph: "grid", N: 25, Algo: "mis", Seed: 29, Reps: 2},
		{Graph: "churn:grid", N: 36, Algo: "flood", Seed: 29, Reps: 2, Epochs: 4, EpochLen: 8, Rate: 0.3},
	}
	for _, sp := range specs {
		fresh, err := Execute(sp, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := fresh.JSON()
		for _, jobFirst := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/jobFirst=%v", sp.Graph, jobFirst), func(t *testing.T) {
				s, err := Open(Config{Workers: 2, CacheEntries: 8, DataDir: t.TempDir()})
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				entered := make(chan struct{})
				release := make(chan struct{})
				var once sync.Once
				s.testHookExecuting = func(Spec) {
					once.Do(func() { close(entered) })
					<-release
				}
				var syncBody []byte
				var syncErr error
				syncDone := make(chan struct{})
				simulate := func() {
					go func() {
						defer close(syncDone)
						syncBody, _, _, syncErr = s.simulate(context.Background(), sp)
					}()
				}
				var v JobView
				submit := func() {
					if v, err = s.SubmitJobCtx(context.Background(), sp); err != nil {
						t.Fatal(err)
					}
				}
				// The second caller is admitted (sync) or running (job) just
				// before it enters the singleflight.
				second := func() bool { j, _ := s.Job(v.ID); return j.State == JobRunning }
				if jobFirst {
					submit()
					<-entered
					simulate()
					second = func() bool { return s.syncPending.Load() > 0 }
				} else {
					simulate()
					<-entered
					submit()
				}
				for deadline := time.Now().Add(30 * time.Second); !second(); {
					if time.Now().After(deadline) {
						t.Fatal("the second caller never started")
					}
					time.Sleep(time.Millisecond)
				}
				time.Sleep(50 * time.Millisecond) // let it reach the flight wait
				close(release)
				<-syncDone
				if syncErr != nil {
					t.Fatalf("sync: %v", syncErr)
				}
				if v = waitForJob(t, s, v.ID); v.State != JobDone {
					t.Fatalf("job %+v, want done", v)
				}
				jobBody, ok := s.ResultByHash(v.SpecHash)
				if !ok {
					t.Fatal("job result not found by hash")
				}
				if !bytes.Equal(syncBody, jobBody) || !bytes.Equal(syncBody, want) {
					t.Fatalf("bodies differ: sync==job %v, sync==Execute %v", bytes.Equal(syncBody, jobBody), bytes.Equal(syncBody, want))
				}
				if st := s.Stats(); st.Executions != 1 || st.Coalesced != 1 {
					t.Fatalf("executions = %d, coalesced = %d; want 1 and 1 for a sync request and a job on one spec", st.Executions, st.Coalesced)
				}
			})
		}
	}
}
