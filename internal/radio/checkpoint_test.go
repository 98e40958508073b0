package radio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/dyn"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/xrand"
)

// ckptEvent is one transcript entry: an act or deliver observation of one
// node at one step. The chaos tests compare full transcripts, so "byte-
// identical resume" is established at the finest observable granularity.
type ckptEvent struct {
	step int
	kind byte  // 'a' act, 'd' deliver
	tx   bool  // act: transmitted
	msg  int64 // act: payload sent; deliver: value heard (minInt64 = silence)
}

const silence = math.MinInt64

// ckptFlood is a flood protocol implementing Snapshotter: nodes adopt the
// highest rank heard and retransmit with Decay-style backoff; a node that
// has held the rumor past quitAfter retires, exercising active-list
// compaction across checkpoints. Its full mutable state is (best, has,
// step, rng); the transcript log is harness instrumentation, not state.
type ckptFlood struct {
	best      int64
	has       bool
	step      int
	budget    int
	quitAfter int
	levels    int
	rng       *xrand.RNG
	log       *[]ckptEvent
}

func (d *ckptFlood) Act(step int) Action {
	a := Listen()
	if d.has && d.rng.Bernoulli(math.Pow(2, -float64(step%d.levels+1))) {
		a = Transmit(d.best)
	}
	msg := int64(silence)
	if a.Transmit {
		msg = a.Msg.(int64)
	}
	*d.log = append(*d.log, ckptEvent{step: step, kind: 'a', tx: a.Transmit, msg: msg})
	return a
}

func (d *ckptFlood) Deliver(step int, msg Message) {
	d.step = step + 1
	heard := int64(silence)
	if r, ok := msg.(int64); ok {
		heard = r
		if !d.has || r > d.best {
			d.best, d.has = r, true
		}
	}
	*d.log = append(*d.log, ckptEvent{step: step, kind: 'd', msg: heard})
}

func (d *ckptFlood) Done() bool {
	return d.step >= d.budget || (d.has && d.step >= d.quitAfter)
}

func (d *ckptFlood) SnapshotState() []byte {
	buf := make([]byte, 0, 25)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(d.best))
	if d.has {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(d.step))
	buf = binary.LittleEndian.AppendUint64(buf, d.rng.State())
	return buf
}

func (d *ckptFlood) RestoreState(data []byte) error {
	if len(data) != 25 {
		return fmt.Errorf("ckptFlood state is %d bytes, want 25", len(data))
	}
	d.best = int64(binary.LittleEndian.Uint64(data[0:8]))
	d.has = data[8] == 1
	d.step = int(binary.LittleEndian.Uint64(data[9:17]))
	d.rng.SetState(binary.LittleEndian.Uint64(data[17:25]))
	return nil
}

// ckptWorkload builds the shared dynamic scenario: a churned grid flood.
func ckptWorkload(t *testing.T) (*dyn.Schedule, int, int) {
	t.Helper()
	g := gen.Grid(6, 6)
	sched, err := dyn.Churn(g, 8, 8, 0.3, xrand.New(11))
	if err != nil {
		t.Fatal(err)
	}
	return sched, g.N(), 64 // schedule, n, budget (MaxSteps)
}

// runCkptFlood runs the scenario with the given engine options, returning
// the result, per-node transcripts, and final per-node state snapshots.
func runCkptFlood(t *testing.T, opts Options, n, budget int) (Result, [][]ckptEvent, [][]byte, error) {
	t.Helper()
	sched := opts.Topology.(*dyn.Schedule)
	logs := make([][]ckptEvent, n)
	nodes := make([]*ckptFlood, n)
	factory := func(info NodeInfo) Protocol {
		nd := &ckptFlood{
			budget:    budget,
			quitAfter: budget/2 + info.Index%7,
			levels:    6,
			rng:       info.RNG,
			log:       &logs[info.Index],
		}
		if info.Index == 0 {
			nd.best, nd.has = 1, true
		}
		nodes[info.Index] = nd
		return nd
	}
	opts.MaxSteps = budget
	opts.Seed = 0xc0ffee
	res, err := Run(sched.CSR(0).Graph(), factory, opts)
	finals := make([][]byte, n)
	for v, nd := range nodes {
		finals[v] = nd.SnapshotState()
	}
	return res, logs, finals, err
}

var errWorkerKilled = errors.New("chaos: worker killed")

// TestCheckpointResumeByteIdentical is the chaos acceptance test: a run
// killed at an arbitrary epoch boundary (fault-injected worker death via
// the Checkpoint hook) and resumed from its last persisted checkpoint
// produces transcripts, final protocol states, and a Result byte-identical
// to the uninterrupted run.
func TestCheckpointResumeByteIdentical(t *testing.T) {
	sched, n, budget := ckptWorkload(t)
	base := Options{Topology: sched}
	wantRes, wantLogs, wantFinals, err := runCkptFlood(t, base, n, budget)
	if err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}

	// Kill at each epoch boundary in turn: boundary 0 is the first
	// topology change (the step-0 epoch is installed before the loop, so no
	// checkpoint fires there).
	for kill := 1; kill <= 4; kill++ {
		name := fmt.Sprintf("capture=sequential/resume=sequential/kill=%d", kill)
		t.Run(name, func(t *testing.T) {
			faults := chaos.New()
			faults.Arm("radio.checkpoint", kill-1, 1, errWorkerKilled)
			var last *Checkpoint
			opts := base
			opts.Checkpoint = func(cp *Checkpoint) error {
				// The fault fires before persisting — the kill boundary's
				// checkpoint is lost, like a worker dying mid-append — so
				// resume replays at least one epoch.
				if err := faults.Check("radio.checkpoint"); err != nil {
					return err
				}
				last = cp
				return nil
			}
			_, killedLogs, _, err := runCkptFlood(t, opts, n, budget)
			if !errors.Is(err, errWorkerKilled) {
				t.Fatalf("killed run: err = %v, want %v", err, errWorkerKilled)
			}
			// Death at the first boundary persists nothing: resume
			// degenerates to a from-scratch rerun (the job spec is the
			// step-0 checkpoint), which determinism makes just as
			// byte-identical.
			cut := 0
			ropts := base
			if last != nil {
				cut = last.Step
				ropts.Resume = last
			} else if kill != 1 {
				t.Fatalf("no checkpoint persisted before kill %d", kill)
			}
			res2, resumedLogs, finals2, err := runCkptFlood(t, ropts, n, budget)
			if err != nil {
				t.Fatalf("resumed run: %v", err)
			}

			if res2 != wantRes {
				t.Errorf("Result diverged: resumed %+v, uninterrupted %+v", res2, wantRes)
			}
			for v := 0; v < n; v++ {
				if string(finals2[v]) != string(wantFinals[v]) {
					t.Errorf("node %d final state diverged", v)
				}
				// Stitch: killed-run transcript before the checkpoint step +
				// resumed transcript = uninterrupted transcript.
				var stitched []ckptEvent
				for _, ev := range killedLogs[v] {
					if ev.step < cut {
						stitched = append(stitched, ev)
					}
				}
				stitched = append(stitched, resumedLogs[v]...)
				if len(stitched) != len(wantLogs[v]) {
					t.Fatalf("node %d: stitched transcript %d events, want %d", v, len(stitched), len(wantLogs[v]))
				}
				for i := range stitched {
					if stitched[i] != wantLogs[v][i] {
						t.Fatalf("node %d event %d diverged: %+v vs %+v", v, i, stitched[i], wantLogs[v][i])
					}
				}
			}
		})
	}
}

// TestCheckpointRequiresSnapshotter pins the up-front contract error.
func TestCheckpointRequiresSnapshotter(t *testing.T) {
	sched, _, budget := ckptWorkload(t)
	factory := func(info NodeInfo) Protocol {
		return &steadyNode{rng: info.RNG, budget: budget}
	}
	_, err := Run(sched.CSR(0).Graph(), factory, Options{
		MaxSteps:   budget,
		Seed:       1,
		Topology:   sched,
		Checkpoint: func(*Checkpoint) error { return nil },
	})
	if err == nil || !strings.Contains(err.Error(), "Snapshotter") {
		t.Fatalf("expected Snapshotter contract error, got %v", err)
	}
}

// TestCheckpointHookErrorAborts pins that a failing hook (journal write
// failure, injected death) aborts the run with the hook's error.
func TestCheckpointHookErrorAborts(t *testing.T) {
	sched, n, budget := ckptWorkload(t)
	boom := errors.New("journal full")
	opts := Options{Topology: sched, Checkpoint: func(*Checkpoint) error { return boom }}
	_, _, _, err := runCkptFlood(t, opts, n, budget)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped %v", err, boom)
	}
}

// TestResumeValidation pins structural validation of resume checkpoints.
func TestResumeValidation(t *testing.T) {
	sched, n, budget := ckptWorkload(t)
	var last *Checkpoint
	opts := Options{Topology: sched, Checkpoint: func(cp *Checkpoint) error { last = cp; return nil }}
	if _, _, _, err := runCkptFlood(t, opts, n, budget); err != nil {
		t.Fatal(err)
	}
	if last == nil {
		t.Fatal("no checkpoint captured")
	}

	bad := *last
	bad.Step = budget + 1
	if _, _, _, err := runCkptFlood(t, Options{Topology: sched, Resume: &bad}, n, budget); err == nil {
		t.Error("out-of-range resume step accepted")
	}
	bad = *last
	bad.Nodes = bad.Nodes[:1]
	if _, _, _, err := runCkptFlood(t, Options{Topology: sched, Resume: &bad}, n, budget); err == nil {
		t.Error("truncated node states accepted")
	}
	bad = *last
	bad.Active = []int32{3, 2}
	if _, _, _, err := runCkptFlood(t, Options{Topology: sched, Resume: &bad}, n, budget); err == nil {
		t.Error("non-ascending active list accepted")
	}
}

// sameEvery is a Topology that re-installs one snapshot every `every`
// steps: dynamic in form, static in content, so its boundary checkpoints
// are valid resume points for a static run on that snapshot.
type sameEvery struct {
	csr   *graph.CSR
	every int
}

func (s sameEvery) EpochAt(step int) (*graph.CSR, int) {
	return s.csr, (step/s.every + 1) * s.every
}

// TestStaticResumeFiresNoBoundary pins that a resumed static run has no
// epoch boundaries on either static entry point: Run(g) and RunCSR(csr)
// both fire no Checkpoint and exactly one Probe sample, the final one, and
// both end with the uninterrupted run's Result.
func TestStaticResumeFiresNoBoundary(t *testing.T) {
	g := gen.Grid(6, 6)
	budget := 64
	factory := func(info NodeInfo) Protocol {
		nd := &ckptFlood{budget: budget, quitAfter: budget, levels: 6, rng: info.RNG, log: new([]ckptEvent)}
		if info.Index == 0 {
			nd.best, nd.has = 1, true
		}
		return nd
	}
	base := Options{MaxSteps: budget, Seed: 0xc0ffee}
	want, err := Run(g, factory, base)
	if err != nil {
		t.Fatal(err)
	}
	var cp *Checkpoint
	capture := base
	capture.Topology = sameEvery{g.Freeze(), 8}
	capture.Checkpoint = func(c *Checkpoint) error { cp = c; return nil }
	if _, err := Run(g, factory, capture); err != nil {
		t.Fatal(err)
	}
	if cp == nil || cp.Step != 56 {
		t.Fatalf("last boundary checkpoint %+v, want one at step 56", cp)
	}
	entries := []struct {
		name string
		run  func(Options) (Result, error)
	}{
		{"Run", func(o Options) (Result, error) { return Run(g, factory, o) }},
		{"RunCSR", func(o Options) (Result, error) { return RunCSR(g.Freeze(), factory, o) }},
	}
	for _, entry := range entries {
		var probes []ProbeSample
		ckpts := 0
		o := base
		o.Resume = cp
		o.Checkpoint = func(*Checkpoint) error { ckpts++; return nil }
		o.Probe = func(s *ProbeSample) { probes = append(probes, *s) }
		res, err := entry.run(o)
		if err != nil {
			t.Fatalf("%s: %v", entry.name, err)
		}
		if ckpts != 0 {
			t.Errorf("%s: %d checkpoints on a static resume, want 0", entry.name, ckpts)
		}
		if len(probes) != 1 || !probes[0].Final {
			t.Errorf("%s: probe samples %+v, want exactly one final sample", entry.name, probes)
		}
		if res != want {
			t.Errorf("%s: resumed Result %+v, uninterrupted %+v", entry.name, res, want)
		}
	}
}
