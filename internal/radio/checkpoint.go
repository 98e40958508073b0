package radio

// Engine checkpoint/resume (DESIGN.md §8). The engine is transcript-
// deterministic, so a run's entire future is a function of its state at a
// step boundary: the per-node protocol states (including their private RNG
// streams), the not-yet-retired active list, and the cumulative counters.
// A Checkpoint captures exactly that at a topology epoch boundary — the
// only points where the step loop already leaves its zero-alloc regime —
// and Options.Resume reconstructs it, so a run killed at an arbitrary
// boundary and resumed produces output byte-identical to an uninterrupted
// run.

import "fmt"

// Snapshotter is the optional protocol extension engine checkpointing
// requires (Options.Checkpoint / Options.Resume): a protocol serializes its
// complete mutable state — counters, adopted values, and its RNG stream
// (xrand.RNG.State) — and restores it exactly. Run fails up front if
// checkpointing is requested and any node's protocol does not implement it.
type Snapshotter interface {
	// SnapshotState serializes the node's complete mutable state.
	SnapshotState() []byte
	// RestoreState overwrites the node's state with one previously
	// serialized by SnapshotState on an identically-constructed protocol.
	RestoreState(data []byte) error
}

// Checkpoint is a resumable engine snapshot, captured immediately before
// the act phase of Step (so Partial covers steps [0, Step) exactly). It is
// plain data — JSON-marshalable for journals — and owned by the hook that
// receives it; the engine never retains or reuses it.
type Checkpoint struct {
	// Step is the time-step about to execute when the snapshot was taken.
	Step int `json:"step"`
	// Partial holds the cumulative Result counters over steps [0, Step).
	Partial Result `json:"partial"`
	// Active is the not-yet-retired node list, ascending.
	Active []int32 `json:"active"`
	// Nodes holds one SnapshotState blob per node (retired nodes included:
	// callers such as flood outcomes read terminal protocol state).
	Nodes [][]byte `json:"nodes"`
}

// capture snapshots the run at the boundary of step: the active list is
// copied, every node's protocol state is serialized.
func (e *engine) capture(step int, active []int32, partial Result) *Checkpoint {
	cp := &Checkpoint{
		Step:    step,
		Partial: partial,
		Active:  append([]int32(nil), active...),
		Nodes:   make([][]byte, e.n),
	}
	for v := range cp.Nodes {
		cp.Nodes[v] = e.pop.SnapshotNode(v)
	}
	return cp
}

// boundary captures the run at step and hands the snapshot to the
// Checkpoint hook. A hook error aborts the run: a checkpoint that cannot be
// persisted must not let the run race ahead of its journal, and the chaos
// harness injects worker death here. An observing consumer (prefix-cache
// publication) returns nil from its part of the hook, so it never aborts.
func (e *engine) boundary(step int, active []int32, partial Result) error {
	if err := e.opts.Checkpoint(e.capture(step, active, partial)); err != nil {
		return fmt.Errorf("radio: checkpoint at step %d aborted the run: %w", step, err)
	}
	return nil
}

// restore overwrites freshly-built protocol state from cp and arms the
// epoch machinery so the first loop iteration at cp.Step re-installs the
// topology (and re-syncs the PHY model) in force there. Validation is
// structural; state consistency is the caller's contract — resume with the
// same graph, factory, seed, topology, and PHY the checkpoint was captured
// under.
func (e *engine) restore(cp *Checkpoint) error {
	n := e.n
	if len(cp.Nodes) != n {
		return fmt.Errorf("radio: resume checkpoint has %d node states for %d nodes", len(cp.Nodes), n)
	}
	prev := int32(-1)
	for _, v := range cp.Active {
		if v < 0 || int(v) >= n || v <= prev {
			return fmt.Errorf("radio: resume checkpoint active list is not an ascending subset of [0,%d)", n)
		}
		prev = v
	}
	if err := e.pop.Restore(cp.Nodes); err != nil {
		return fmt.Errorf("radio: resume: %w", err)
	}
	if e.nextEpoch >= 0 {
		// The topology changes after step 0: force epochSync to fire at
		// cp.Step, installing the epoch active there and re-syncing the PHY
		// model at the resume step. A static topology (single epoch) has no
		// boundaries to re-fire, resumed or not.
		e.nextEpoch = cp.Step
	}
	// Start the probe's rate window at the resume point, not step 0, so the
	// first sample after resume reports the resumed run's own rates.
	e.probeStep, e.probeTx = cp.Step, cp.Partial.Transmissions
	return nil
}
