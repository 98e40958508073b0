package mis

import (
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/radio"
)

// misStepAllocs runs Radio MIS on g and returns the heap allocations made
// from the end of the first step to the end of the run, and the run's
// step count.
func misStepAllocs(t *testing.T, roundFactor int) (allocs uint64, steps int) {
	t.Helper()
	g := gen.Grid(12, 12)
	g.Freeze()
	var m0, m1 runtime.MemStats
	out, err := RunOnEngine(g, Params{RoundFactor: roundFactor}, 5, func(f radio.Factory, o radio.Options) (radio.Result, error) {
		o.OnStep = func(st radio.StepStats) {
			if st.Step == 0 {
				runtime.ReadMemStats(&m0)
			}
		}
		res, err := radio.Run(g, f, o)
		runtime.ReadMemStats(&m1)
		return res, err
	})
	if err != nil {
		t.Fatal(err)
	}
	return m1.Mallocs - m0.Mallocs, out.Steps
}

// TestRadioMISAllocsDoNotGrowWithRounds pins that Radio MIS allocates
// nothing per round — no Decay blocks, no degree counters — so a run's
// allocations do not grow with RoundFactor: every step after the first
// allocates nothing, under a budget that cuts the run short and under one
// that lets it run to completion.
func TestRadioMISAllocsDoNotGrowWithRounds(t *testing.T) {
	shortAllocs, shortSteps := misStepAllocs(t, 1)
	longAllocs, longSteps := misStepAllocs(t, 8)
	if longSteps <= shortSteps {
		t.Fatalf("round budgets ran %d and %d steps: the larger budget must run more rounds", shortSteps, longSteps)
	}
	if shortAllocs != 0 || longAllocs != 0 {
		t.Fatalf("Radio MIS allocates in its step loop: %d allocs over %d steps, %d over %d", shortAllocs, shortSteps, longAllocs, longSteps)
	}
}
