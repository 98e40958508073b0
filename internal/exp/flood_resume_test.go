package exp

import (
	"encoding/json"
	"errors"
	"testing"

	"repro/internal/dyn"
	"repro/internal/gen"
	"repro/internal/xrand"
)

// TestFloodCheckpointResume: a RunFlood killed at an epoch boundary (the
// OnCheckpoint hook failing, as when the serve journal loses its disk) and
// resumed from the last snapshot — round-tripped through JSON like the
// journal does — reports an outcome identical to the uninterrupted run,
// including probe and completion fields recorded before the kill.
func TestFloodCheckpointResume(t *testing.T) {
	g := gen.Grid(6, 6)
	sched, err := dyn.Churn(g, 8, 8, 0.3, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	sources := map[int]int64{0: 7}
	base := FloodConfig{Budget: 64, ProbeStep: 10, Seed: 99}
	want, err := RunFlood(g, sched, sources, base)
	if err != nil {
		t.Fatal(err)
	}

	killed := errors.New("journal lost")
	for kill := 1; kill <= 3; kill++ {
		var last *FloodCheckpoint
		calls := 0
		cfg := base
		cfg.OnCheckpoint = func(cp *FloodCheckpoint) error {
			calls++
			if calls == kill {
				return killed
			}
			last = cp
			return nil
		}
		if _, err := RunFlood(g, sched, sources, cfg); !errors.Is(err, killed) {
			t.Fatalf("kill=%d: err = %v, want %v (checkpoint calls: %d)", kill, err, killed, calls)
		}

		rcfg := base
		if last != nil {
			// Round-trip through JSON: the serve journal stores snapshots as
			// JSON lines, so resume must survive the encoding.
			raw, err := json.Marshal(last)
			if err != nil {
				t.Fatal(err)
			}
			decoded := &FloodCheckpoint{}
			if err := json.Unmarshal(raw, decoded); err != nil {
				t.Fatal(err)
			}
			rcfg.Resume = decoded
		} else if kill != 1 {
			t.Fatalf("kill=%d: no checkpoint persisted", kill)
		}
		got, err := RunFlood(g, sched, sources, rcfg)
		if err != nil {
			t.Fatalf("kill=%d: resumed run: %v", kill, err)
		}
		if got != want {
			t.Fatalf("kill=%d: resumed outcome %+v, uninterrupted %+v", kill, got, want)
		}
	}
}

// TestRunFloodRejectsMismatchedSchedule: RunFlood sizes the flood from g
// and the engine from the schedule, so a schedule over a different node
// count is an error, not a run with the wrong Decay levels.
func TestRunFloodRejectsMismatchedSchedule(t *testing.T) {
	sched, err := dyn.Churn(gen.Grid(6, 6), 4, 8, 0.3, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunFlood(gen.Grid(5, 5), sched, map[int]int64{0: 1}, FloodConfig{Budget: 32, ProbeStep: -1}); err == nil {
		t.Fatal("RunFlood accepted a 36-node schedule for a 25-node graph")
	}
}
