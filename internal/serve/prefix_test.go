package serve

// Prefix-cache suite (DESIGN.md §9): canonical prefix/tail split, cross-
// variant snapshot resume at the execution layer, service-level prefix hits
// (byte-identical and golden-pinned against cold computation), the
// concurrent-variant stampede on a one-worker service, and the snap/
// keyspace chaos drills — corruption quarantines and recomputes, torn
// writes are invisible.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/chaos"
	"repro/internal/exp"
	"repro/internal/gen"
	"repro/internal/radio"
)

// sweepSpec is the suite's base scenario; variants differ only in the tail
// (Epochs, Reps) unless a test says otherwise.
func sweepSpec(epochs int) Spec {
	return Spec{Graph: "churn:grid", N: 36, Algo: "flood", Seed: 17, Reps: 2,
		Epochs: epochs, EpochLen: 8, Rate: 0.5}
}

func TestPrefixCanonicalProperties(t *testing.T) {
	base := mustCanon(t, sweepSpec(6))
	if !base.PrefixCacheable() {
		t.Fatal("dynamic flood spec should be prefix-cacheable")
	}
	if !strings.Contains(string(base.Canonical()), "trialseed=prefix\n") {
		t.Fatal("prefix-cacheable canonical form must carry the trialseed=prefix marker")
	}

	// The tail — Epochs and Reps — must not move the prefix identity: same
	// PrefixHash, same GridID (so trial seeds agree on shared epochs),
	// different full Hash (they are different results).
	for _, tail := range []Spec{
		func() Spec { v := sweepSpec(9); return v }(),
		func() Spec { v := sweepSpec(6); v.Reps = 7; return v }(),
	} {
		v := mustCanon(t, tail)
		if v.PrefixHash() != base.PrefixHash() {
			t.Fatalf("tail change moved PrefixHash: %+v", tail)
		}
		if v.GridID() != base.GridID() {
			t.Fatalf("tail change moved GridID (trial seeds diverge): %+v", tail)
		}
		if v.Hash() == base.Hash() {
			t.Fatalf("tail change did not move the result hash: %+v", tail)
		}
	}

	// Every prefix field must move the prefix hash.
	prefixEdits := []func(*Spec){
		func(sp *Spec) { sp.Seed = 18 },
		func(sp *Spec) { sp.Rate = 0.25 },
		func(sp *Spec) { sp.EpochLen = 16 },
		func(sp *Spec) { sp.N = 49 },
		func(sp *Spec) { sp.Source = 1 },
	}
	for i, edit := range prefixEdits {
		v := sweepSpec(6)
		edit(&v)
		v = mustCanon(t, v)
		if v.PrefixHash() == base.PrefixHash() {
			t.Fatalf("prefix edit %d did not move PrefixHash", i)
		}
	}

	// Non-dynamic and non-flood specs sit outside the prefix grammar.
	for _, sp := range []Spec{
		{Graph: "grid", N: 36, Algo: "mis", Seed: 1, Reps: 2},
		{Graph: "grid", N: 36, Algo: "broadcast", Seed: 1, Reps: 2},
		{Graph: "phy:sinr", N: 36, Algo: "mis", Seed: 1, Reps: 2},
	} {
		c := mustCanon(t, sp)
		if c.PrefixCacheable() {
			t.Fatalf("%s should not be prefix-cacheable", c)
		}
		if strings.Contains(string(c.Canonical()), "trialseed=prefix") {
			t.Fatalf("%s canonical form must not carry the prefix marker", c)
		}
	}
}

// Cross-variant resume at the execution layer: snapshots published by a
// short variant, round-tripped through their store encoding, seed a longer
// variant whose result must be byte-identical to a cold run — and whose
// own snapshot publications must all land past the resume point, proving
// the shared epochs were skipped rather than recomputed.
func TestExecuteWithSnapshotSeedsCrossVariantResume(t *testing.T) {
	short, long := sweepSpec(4), sweepSpec(6)

	deepest := map[int]int{}
	raws := map[int][]byte{}
	var mu sync.Mutex
	_, err := ExecuteWith(short, ExecOptions{OnCheckpoint: func(trial int, cp *exp.FloodCheckpoint) error {
		raw, err := json.Marshal(cp)
		if err != nil {
			t.Errorf("marshal snapshot: %v", err)
			return nil
		}
		mu.Lock()
		defer mu.Unlock()
		if cp.Engine.Step > deepest[trial] {
			deepest[trial] = cp.Engine.Step
			raws[trial] = raw
		}
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(raws) != short.Reps {
		t.Fatalf("snapshots for %d trials, want %d", len(raws), short.Reps)
	}

	fresh, err := Execute(long, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := fresh.JSON()

	resume := map[int]*exp.FloodCheckpoint{}
	for trial, raw := range raws {
		var cp exp.FloodCheckpoint
		if err := json.Unmarshal(raw, &cp); err != nil {
			t.Fatal(err)
		}
		resume[trial] = &cp
	}
	firstPub := map[int]int{}
	r, err := ExecuteWith(long, ExecOptions{ResumeFrom: resume,
		OnCheckpoint: func(trial int, cp *exp.FloodCheckpoint) error {
			mu.Lock()
			defer mu.Unlock()
			if _, seen := firstPub[trial]; !seen {
				firstPub[trial] = cp.Engine.Step
			}
			return nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := r.JSON(); !bytes.Equal(got, want) {
		t.Fatal("resumed variant differs from cold computation")
	}
	// A resumed engine fires its first boundary at the resume step itself
	// (an idempotent re-publication); anything strictly earlier means the
	// shared epochs were stepped through again.
	for trial, step := range firstPub {
		if step < deepest[trial] {
			t.Fatalf("trial %d republished at step %d < resume step %d — shared epochs were recomputed",
				trial, step, deepest[trial])
		}
	}
}

// goldenLongSweepSHA pins the result bytes of sweepSpec(5): the cold run,
// the durable-server prefix hit, and any future engine must all produce
// exactly these bytes. If an intentional format or semantics change moves
// it, regenerate with the command printed by the failure.
const goldenLongSweepSHA = "a3f29bbe4bfa702e01a101da4dcec07216d71fcc947f0ec8e29a55f9f14b039a"

func TestServicePrefixHitByteIdenticalGolden(t *testing.T) {
	short, long := sweepSpec(3), sweepSpec(5)

	eph := New(Config{Workers: 1})
	defer eph.Close()
	coldLong, _, st, err := eph.simulate(context.Background(), long)
	if err != nil || st != StatusMiss {
		t.Fatalf("ephemeral cold run: status %s err %v", st, err)
	}
	if got := hex.EncodeToString(func() []byte { s := sha256.Sum256(coldLong); return s[:] }()); got != goldenLongSweepSHA {
		t.Fatalf("cold result sha256 %s, want pinned %s\n(regenerate the pin only for an intentional result change)", got, goldenLongSweepSHA)
	}

	s, err := Open(Config{Workers: 1, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, _, st, err := s.simulate(context.Background(), short); err != nil || st != StatusMiss {
		t.Fatalf("seeding run: status %s err %v", st, err)
	}
	warmLong, _, st2, err := s.simulate(context.Background(), long)
	if err != nil {
		t.Fatal(err)
	}
	if st2 != StatusPrefixHit {
		t.Fatalf("long variant after seeding: status %s, want %s", st2, StatusPrefixHit)
	}
	if !bytes.Equal(warmLong, coldLong) {
		t.Fatal("prefix hit differs from cold computation")
	}
	stats := s.Stats()
	if stats.PrefixHits != 1 || stats.PrefixEpochsSaved == 0 {
		t.Fatalf("stats %+v, want 1 prefix hit with epochs saved", stats)
	}
	if stats.SnapPuts == 0 || stats.SnapEntries == 0 {
		t.Fatalf("stats %+v, want published snapshot entries", stats)
	}
	// The repeat is a plain memory hit — the prefix layer never overrides a
	// cached result.
	if _, _, st3, err := s.simulate(context.Background(), long); err != nil || st3 != StatusHit {
		t.Fatalf("repeat: status %s err %v, want memory hit", st3, err)
	}
}

// Concurrent sweep variants against a one-worker durable service: the
// prefix singleflight must elect one cold leader and let every follower
// ride its snapshots without deadlocking against the single worker slot
// (the flight is entered before slot acquisition — this test is the
// regression guard for that ordering). Every response must be
// byte-identical to its own cold computation.
func TestServicePrefixStampedeOneWorker(t *testing.T) {
	const variants = 6
	s, err := Open(Config{Workers: 1, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	got := make([][]byte, variants)
	errs := make([]error, variants)
	var wg sync.WaitGroup
	for i := 0; i < variants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], _, _, errs[i] = s.simulate(context.Background(), sweepSpec(3+i))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		fresh, err := Execute(sweepSpec(3+i), 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := fresh.JSON()
		if !bytes.Equal(got[i], want) {
			t.Fatalf("variant %d differs from its cold computation", i)
		}
	}
	if stats := s.Stats(); stats.PrefixHits == 0 {
		t.Fatalf("stats %+v, want at least one prefix hit across the stampede", stats)
	}
}

// snapEntries lists the snap keyspace's committed entry files.
func snapEntries(t *testing.T, dataDir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dataDir, "snap", "results", "*"))
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

// Chaos: every snapshot entry corrupted on disk → the probe quarantines
// them all, the run degrades to a cold computation with byte-identical
// output, and the republished snapshots repopulate the keyspace.
func TestServiceSnapCorruptionQuarantinedAndCold(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, _, st, err := s.simulate(context.Background(), sweepSpec(3)); err != nil || st != StatusMiss {
		t.Fatalf("seeding run: status %s err %v", st, err)
	}
	entries := snapEntries(t, dir)
	if len(entries) == 0 {
		t.Fatal("seeding run published no snapshots")
	}
	for _, p := range entries {
		if err := os.WriteFile(p, []byte("v1 feedfacefeedface not a checksum\ngarbage"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	long := sweepSpec(5)
	fresh, err := Execute(long, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := fresh.JSON()
	got, _, st, err := s.simulate(context.Background(), long)
	if err != nil {
		t.Fatal(err)
	}
	if st != StatusMiss {
		t.Fatalf("status %s after corrupting every snapshot, want a cold miss", st)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("post-corruption result differs from cold computation")
	}
	stats := s.Stats()
	if stats.SnapQuarantined == 0 {
		t.Fatalf("stats %+v, want quarantined snapshot entries", stats)
	}
	if stats.PrefixHits != 0 {
		t.Fatalf("stats %+v, want no prefix hits riding corrupt snapshots", stats)
	}
	// The cold run re-seeded the keyspace; the next variant rides it again.
	if _, _, st, err := s.simulate(context.Background(), sweepSpec(6)); err != nil || st != StatusPrefixHit {
		t.Fatalf("after re-seeding: status %s err %v, want prefix hit", st, err)
	}
}

// Chaos: a kill -9 mid-snapshot-write leaves staging debris, never a
// readable torn entry — the rename is what commits. Staged files are swept
// on reopen, and a torn final entry (simulating a non-atomic filesystem)
// quarantines on first read instead of resuming anything.
func TestServiceTornSnapshotWriteInvisible(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, st, err := s.simulate(context.Background(), sweepSpec(3)); err != nil || st != StatusMiss {
		t.Fatalf("seeding run: status %s err %v", st, err)
	}
	entries := snapEntries(t, dir)
	if len(entries) == 0 {
		t.Fatal("seeding run published no snapshots")
	}
	s.Close()

	// A write the process died inside of: present in tmp/, absent from
	// results/ — by construction, since the rename never ran.
	staged := filepath.Join(dir, "snap", "tmp", fmt.Sprintf("%064d.12345", 0))
	if err := os.WriteFile(staged, []byte("v1 half-writ"), 0o644); err != nil {
		t.Fatal(err)
	}
	// And committed entries torn after the fact (simulating a non-atomic
	// filesystem): truncate every one mid-payload, so whichever keys the
	// probe visits, it meets a torn entry and must quarantine rather than
	// resume.
	for _, p := range entries {
		if err := os.Truncate(p, 10); err != nil {
			t.Fatal(err)
		}
	}

	s2, err := Open(Config{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, statErr := os.Stat(staged); !os.IsNotExist(statErr) {
		t.Fatal("reopen did not sweep the staged snapshot debris")
	}

	long := sweepSpec(5)
	fresh, err := Execute(long, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := fresh.JSON()
	got, _, _, err := s2.simulate(context.Background(), long)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("result after torn snapshots differs from cold computation")
	}
	if stats := s2.Stats(); stats.SnapQuarantined == 0 {
		t.Fatalf("stats %+v, want the torn entry quarantined", stats)
	}
}

// The schedule memo returns ScheduleByName's schedule for every variant of
// a sweep, in any Epochs order, from one grower per trial seed; specs
// without a grower fall back to a plain build, and a grower over the byte
// bound is dropped without changing what the caller gets.
func TestScheduleMemoMatchesScheduleByName(t *testing.T) {
	check := func(m *scheduleMemo, sp Spec, seed uint64) {
		t.Helper()
		c, err := sp.Canonicalize()
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.schedule(c, seed)
		if err != nil {
			t.Fatal(err)
		}
		want, err := gen.ScheduleByName(c.Graph, c.N, c.Epochs, c.EpochLen, c.Rate, seed)
		if err != nil {
			t.Fatal(err)
		}
		if got.Epochs() != want.Epochs() {
			t.Fatalf("%s seed %d: %d epochs, want %d", c, seed, got.Epochs(), want.Epochs())
		}
		for i := 0; i < want.Epochs(); i++ {
			if got.Start(i) != want.Start(i) || !got.CSR(i).Equal(want.CSR(i)) {
				t.Fatalf("%s seed %d: epoch %d differs", c, seed, i)
			}
		}
	}
	m := newScheduleMemo(scheduleMemoBytes)
	for _, e := range []int{5, 3, 8, 8, 1} {
		check(m, sweepSpec(e), 41)
	}
	check(m, sweepSpec(4), 42)
	if len(m.byKey) != 2 {
		t.Fatalf("memo holds %d growers after two trial seeds, want 2", len(m.byKey))
	}
	mobile := sweepSpec(4)
	mobile.Graph = "mobile:udg"
	check(m, mobile, 41)
	if len(m.byKey) != 2 {
		t.Fatalf("memo holds %d growers after a mobile spec, want 2 (no grower)", len(m.byKey))
	}
	tiny := newScheduleMemo(1)
	check(tiny, sweepSpec(6), 41)
	if len(tiny.byKey) != 0 || tiny.ll.Len() != 0 {
		t.Fatal("a grower over the byte bound stayed in the memo")
	}
}

// armPrefix chains publication onto the caller's boundary hook: the
// snapshot is published before the caller's hook (a job's journal) runs,
// the caller's error alone aborts, a failed publication is only counted,
// and a resume entry the caller set wins over the plan's snapshot for its
// trial without the plan's map being touched.
func TestArmPrefixPublishesThenChains(t *testing.T) {
	s, err := Open(Config{Workers: 1, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sp := mustCanonical(t, sweepSpec(4))
	ph := sp.PrefixHash()
	cached0, cached1, journaled := &exp.FloodCheckpoint{}, &exp.FloodCheckpoint{}, &exp.FloodCheckpoint{}
	plan := &prefixPlan{resume: map[int]*exp.FloodCheckpoint{0: cached0, 1: cached1}}
	boom := errors.New("journal append failed")
	var published []bool // per journal call: was the snapshot already in the store?
	o := ExecOptions{
		ResumeFrom: map[int]*exp.FloodCheckpoint{1: journaled},
		OnCheckpoint: func(trial int, cp *exp.FloodCheckpoint) error {
			_, ok, _ := s.snaps.Get(snapKey(ph, cp.Engine.Step/sp.EpochLen, trial))
			published = append(published, ok)
			return boom
		},
	}
	s.armPrefix(sp, plan, &o)

	if o.ResumeFrom[0] != cached0 || o.ResumeFrom[1] != journaled {
		t.Fatalf("ResumeFrom %v: want the plan's trial 0 and the journal's trial 1", o.ResumeFrom)
	}
	if len(plan.resume) != 2 || plan.resume[1] != cached1 {
		t.Fatalf("plan map mutated: %v", plan.resume)
	}
	cp := &exp.FloodCheckpoint{Engine: &radio.Checkpoint{Step: sp.EpochLen}}
	if err := o.OnCheckpoint(0, cp); !errors.Is(err, boom) {
		t.Fatalf("chained hook error = %v, want the journal's %v", err, boom)
	}
	if len(published) != 1 || !published[0] {
		t.Fatalf("journal saw published=%v, want the snapshot published before the journal hook", published)
	}

	faults := chaos.New()
	faults.Arm("store.put", 0, -1, errors.New("disk full"))
	s.snaps.SetFaults(faults)
	o = ExecOptions{}
	s.armPrefix(sp, nil, &o)
	if err := o.OnCheckpoint(1, &exp.FloodCheckpoint{Engine: &radio.Checkpoint{Step: 2 * sp.EpochLen}}); err != nil {
		t.Fatalf("failed publication aborted the hook: %v", err)
	}
	if got := s.Stats().SnapErrors; got != 1 {
		t.Fatalf("SnapErrors = %d, want 1", got)
	}
}

// A failing snapshot store never fails a request: with every snap/
// publication faulted, a dynamic flood served sync and one run as a job
// both succeed with bodies equal to a fresh Execute, and the failures show
// up only in Stats().SnapErrors.
func TestServiceSnapPublishFailureIsAdvisory(t *testing.T) {
	s, err := Open(Config{Workers: 2, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	faults := chaos.New()
	faults.Arm("store.put", 0, -1, errors.New("disk full"))
	s.snaps.SetFaults(faults)

	syncSpec, jobSpec := sweepSpec(4), sweepSpec(4)
	jobSpec.Seed++
	want := func(sp Spec) []byte {
		r, err := Execute(sp, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := r.JSON()
		return b
	}
	got, _, st, err := s.simulate(context.Background(), syncSpec)
	if err != nil || st != StatusMiss {
		t.Fatalf("sync: status %s err %v", st, err)
	}
	if !bytes.Equal(got, want(syncSpec)) {
		t.Fatal("sync body differs from Execute")
	}
	v, err := s.SubmitJobCtx(context.Background(), jobSpec)
	if err != nil {
		t.Fatal(err)
	}
	if v = waitForJob(t, s, v.ID); v.State != JobDone {
		t.Fatalf("job %+v, want done", v)
	}
	jb, ok := s.ResultByHash(v.SpecHash)
	if !ok || !bytes.Equal(jb, want(jobSpec)) {
		t.Fatalf("job body (found=%v) differs from Execute", ok)
	}
	st2 := s.Stats()
	if st2.SnapErrors == 0 || st2.SnapPuts != 0 {
		t.Fatalf("stats %+v: want failed publications counted and none landed", st2)
	}
	if faults.Triggered("store.put") == 0 {
		t.Fatal("the snap store fault never fired")
	}
}
