package serve

// The incremental-simulation layer (DESIGN.md §9): engine snapshots are
// content-addressed by (canonical spec-prefix hash, epoch, trial) in a
// second store keyspace, so a parameter sweep whose variants share a
// prefix — same graph, schedule, seed, epoch geometry, different Epochs or
// Reps tails — pays for the shared epochs once. A run that resumes from a
// snapshot is byte-identical to a cold run by the determinism contract
// (the per-trial seed and every shared epoch are prefix-determined), and
// every degradation path — missing snapshot, corrupt entry, snapshot that
// doesn't fit the run — falls back to cold computation, never to a wrong
// answer.

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"maps"
	"sync"

	"repro/internal/dyn"
	"repro/internal/exp"
	"repro/internal/gen"
)

// snapKey content-addresses one (spec prefix, epoch, trial) snapshot.
// Hashing the composite frame keeps the key a plain hex name for the store
// and makes the keyspace disjoint from result hashes by construction.
func snapKey(prefixHash string, epoch, trial int) string {
	sum := sha256.Sum256(fmt.Appendf(nil, "snap|%s|epoch=%d|trial=%d", prefixHash, epoch, trial))
	return hex.EncodeToString(sum[:])
}

// prefixPlan is one probe's outcome: the deepest usable snapshot per trial
// index, plus the epochs those snapshots skip (for the stats report).
type prefixPlan struct {
	resume      map[int]*exp.FloodCheckpoint
	epochsSaved int
}

// prefixEligible reports whether sp can consult and feed the snapshot
// cache: a durable service, a prefix-cacheable spec, and at least two
// epochs (a one-epoch run has no interior boundary to snapshot).
func (s *Service) prefixEligible(sp Spec) bool {
	return s.snaps != nil && sp.PrefixCacheable() && sp.Epochs >= 2
}

// probePrefix finds the deepest cached snapshot for each trial of sp,
// scanning epochs from sp.Epochs-1 (the deepest boundary this variant's
// own schedule still extends past — a snapshot at epoch E covers steps
// [0, E·EpochLen) and the resuming run must supply epoch E itself)
// down to 1. Trials past 0 start scanning at trial 0's depth: publication
// happens run-by-run, so per-trial depths move in lockstep and the extra
// probes would be misses. A snapshot that fails to decode is skipped (the
// store already quarantined it if the checksum broke; a decodable-but-
// wrong-shape one is dropped later by floodTrial's structural guard).
func (s *Service) probePrefix(sp Spec) *prefixPlan {
	ph := sp.PrefixHash()
	plan := &prefixPlan{resume: make(map[int]*exp.FloodCheckpoint)}
	depth := sp.Epochs - 1
	for trial := 0; trial < sp.Reps; trial++ {
		found := 0
		for e := depth; e >= 1; e-- {
			raw, ok, err := s.snaps.Get(snapKey(ph, e, trial))
			if err != nil || !ok {
				continue
			}
			var cp exp.FloodCheckpoint
			if json.Unmarshal(raw, &cp) != nil || cp.Engine == nil {
				continue
			}
			plan.resume[trial] = &cp
			found = e
			break
		}
		if trial == 0 {
			if found == 0 {
				return plan // nothing published for this prefix yet
			}
			depth = found
		}
		plan.epochsSaved += found
	}
	return plan
}

// publishSnapshot writes one epoch-boundary snapshot into the snap
// keyspace, relaxed (atomic rename + checksum, no fsync — losing a
// snapshot to a machine crash costs a cold recompute, and a torn one is
// quarantined on read). Failures are counted in snapErrs, never surfaced:
// a failed publication costs future resume depth, never correctness, so it
// must not abort the run it rides on.
func (s *Service) publishSnapshot(sp Spec, prefixHash string, trial int, cp *exp.FloodCheckpoint) {
	step := 0
	if cp.Engine != nil {
		step = cp.Engine.Step
	}
	// Only interior boundaries the prefix grammar can name: epoch 0 (step
	// 0) is a fresh run, and a non-multiple step cannot happen for a
	// well-formed schedule — skip rather than poison the keyspace.
	if step <= 0 || sp.EpochLen <= 0 || step%sp.EpochLen != 0 {
		return
	}
	epoch := step / sp.EpochLen
	raw, err := json.Marshal(cp)
	if err != nil {
		s.snapErrs.Add(1)
		return
	}
	if err := s.snaps.PutRelaxed(snapKey(prefixHash, epoch, trial), raw); err != nil {
		s.snapErrs.Add(1)
	}
}

// armPrefix attaches the prefix-cache hooks to o: publish fresh snapshots
// at every epoch boundary, resume the plan's trials from their cached
// snapshots, and take each trial's schedule from the schedule memo.
// Publication is armed even on a cold run — that is how the first variant
// of a sweep seeds the cache for the rest. It chains onto whatever
// OnCheckpoint o already carries (a job's journal): publish first, then
// the previous hook, whose error alone can abort the run. A ResumeFrom
// entry o already carries (a job's journal checkpoint) wins over the
// plan's snapshot for that trial; the plan's map is left untouched.
func (s *Service) armPrefix(sp Spec, plan *prefixPlan, o *ExecOptions) {
	if !s.prefixEligible(sp) {
		return
	}
	ph := sp.PrefixHash()
	next := o.OnCheckpoint
	o.OnCheckpoint = func(trial int, cp *exp.FloodCheckpoint) error {
		s.publishSnapshot(sp, ph, trial, cp)
		if next == nil {
			return nil
		}
		return next(trial, cp)
	}
	o.Schedule = s.scheds.schedule
	if plan != nil && len(plan.resume) > 0 {
		resume := maps.Clone(plan.resume)
		maps.Copy(resume, o.ResumeFrom)
		o.ResumeFrom = resume
	}
}

// runPrefixed wraps one execution with the prefix-cache protocol. run
// executes the spec (acquiring its own worker slot) with the given plan —
// nil means cold — and reports whether the result was actually found
// already cached. The returned viaPrefix marks a computation that resumed
// at least one trial from a snapshot (the HTTP layer's HIT-PREFIX).
//
// Concurrent sweep variants sharing a cold prefix are collapsed onto one
// leader via a singleflight keyed by the prefix hash: the leader computes
// its own variant (publishing snapshots as it goes) while followers wait,
// then re-probe and ride whatever it published. The flight must be entered
// *before* run acquires a worker slot — a follower parked inside a slot
// would deadlock a one-worker service against its own leader. Followers
// discard the leader's bytes (they answer a different spec hash) and run
// exactly once more, cold if the leader failed or published nothing.
func (s *Service) runPrefixed(sp Spec, run func(plan *prefixPlan) ([]byte, bool, error)) (b []byte, fromCache, viaPrefix bool, err error) {
	if !s.prefixEligible(sp) {
		b, fromCache, err = run(nil)
		return b, fromCache, false, err
	}
	if plan := s.probePrefix(sp); len(plan.resume) > 0 {
		return s.runWarm(plan, run)
	}
	var lb []byte
	var lhit bool
	_, lerr, shared := s.pf.Do(sp.PrefixHash(), nil, func(func(done, total int)) ([]byte, error) {
		var ferr error
		lb, lhit, ferr = run(nil)
		return nil, ferr
	})
	if !shared {
		return lb, lhit, false, lerr
	}
	_ = lerr // the leader's failure is its own; this variant still runs
	if plan := s.probePrefix(sp); len(plan.resume) > 0 {
		return s.runWarm(plan, run)
	}
	b, fromCache, err = run(nil)
	return b, fromCache, false, err
}

// runWarm executes with a non-empty plan and books the prefix-hit stats —
// unless the run turned out to be a cache hit after all (the result landed
// while probing), which is a plain hit, not a prefix one.
func (s *Service) runWarm(plan *prefixPlan, run func(plan *prefixPlan) ([]byte, bool, error)) ([]byte, bool, bool, error) {
	b, fromCache, err := run(plan)
	if err != nil || fromCache {
		return b, fromCache, false, err
	}
	s.prefixHits.Add(1)
	s.prefixEpochs.Add(uint64(plan.epochsSaved))
	return b, false, true, nil
}

// scheduleMemoBytes bounds the snapshot bytes the schedule memo keeps.
const scheduleMemoBytes = 64 << 20

// scheduleMemo keeps the schedule generators (dyn.Grower) of recent
// prefix-cacheable trials, keyed by everything a trial's schedule depends
// on except its epoch count. The variants of an Epochs sweep thus share one
// grower per trial, and each epoch is drawn and frozen once, not once per
// variant: a variant resumed from a snapshot would otherwise rebuild every
// epoch before its resume point. It is an LRU bounded by the growers'
// snapshot bytes; an evicted grower is simply rebuilt on the next request.
type scheduleMemo struct {
	mu    sync.Mutex
	max   int64
	ll    *list.List // front = most recently used; values *memoEntry
	byKey map[string]*list.Element
}

type memoEntry struct {
	key string
	gr  *dyn.Grower
}

func newScheduleMemo(maxBytes int64) *scheduleMemo {
	return &scheduleMemo{max: maxBytes, ll: list.New(), byKey: make(map[string]*list.Element)}
}

// schedule is gen.ScheduleByName(sp.Graph, sp.N, sp.Epochs, sp.EpochLen,
// sp.Rate, seed), built through the memo's grower when the spec has one.
func (m *scheduleMemo) schedule(sp Spec, seed uint64) (*dyn.Schedule, error) {
	key := fmt.Sprintf("%s|n=%d|epochlen=%d|rate=%v|seed=%d", sp.Graph, sp.N, sp.EpochLen, sp.Rate, seed)
	m.mu.Lock()
	el, ok := m.byKey[key]
	if ok {
		m.ll.MoveToFront(el)
	} else {
		gr, err := gen.ScheduleGrower(sp.Graph, sp.N, sp.EpochLen, sp.Rate, seed)
		if err != nil || gr == nil {
			m.mu.Unlock()
			if err != nil {
				return nil, err
			}
			return gen.ScheduleByName(sp.Graph, sp.N, sp.Epochs, sp.EpochLen, sp.Rate, seed)
		}
		el = m.ll.PushFront(&memoEntry{key: key, gr: gr})
		m.byKey[key] = el
	}
	gr := el.Value.(*memoEntry).gr
	m.mu.Unlock()
	sched := gr.Upto(sp.Epochs)
	m.trim()
	return sched, nil
}

// trim keeps the most recently used growers that fit the byte bound
// together and evicts the rest (possibly all: the caller keeps its
// schedule regardless).
func (m *scheduleMemo) trim() {
	m.mu.Lock()
	defer m.mu.Unlock()
	var total int64
	for el := m.ll.Front(); el != nil; {
		next := el.Next()
		e := el.Value.(*memoEntry)
		if total += e.gr.MemBytes(); total > m.max {
			m.ll.Remove(el)
			delete(m.byKey, e.key)
		}
		el = next
	}
}
