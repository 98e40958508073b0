package decay

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/radio"
)

// TestFloodStepZeroAlloc extends the engine's zero-alloc step-loop contract
// to the flood protocol: total allocations of a run must not grow with its
// length. The rank is far above the runtime's preboxed small integers, so
// a node that re-boxed its rank on every transmission would show here.
func TestFloodStepZeroAlloc(t *testing.T) {
	g := gen.Grid(16, 16)
	g.Freeze() // build the CSR cache outside the measured region
	runSteps := func(steps int) {
		fl := NewFlood(9, steps, map[int]int64{0: 1 << 40, 255: 1 << 41})
		if _, err := radio.Run(g, fl.Node, radio.Options{MaxSteps: steps, Seed: 7}); err != nil {
			t.Fatal(err)
		}
		if fl.Informed() == 0 {
			t.Fatal("target never counted")
		}
	}
	short := testing.AllocsPerRun(5, func() { runSteps(64) })
	long := testing.AllocsPerRun(5, func() { runSteps(320) })
	if long > short {
		t.Fatalf("flood step loop allocates: %.1f allocs over 256 extra steps (%.1f vs %.1f per run)", long-short, long, short)
	}
}

// TestFloodSnapshotRoundTrip pins the 25-byte node snapshot (the format
// serve journals and prefix-cache entries hold) and the informed count's
// move on restore.
func TestFloodSnapshotRoundTrip(t *testing.T) {
	fl := NewFlood(4, 100, map[int]int64{0: 9})
	g := gen.Path(3)
	var nodes []*FloodNode
	if _, err := radio.Run(g, func(info radio.NodeInfo) radio.Protocol {
		nd := fl.Node(info).(*FloodNode)
		nodes = append(nodes, nd)
		return nd
	}, radio.Options{MaxSteps: 1, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	src, idle := nodes[0].SnapshotState(), nodes[2].SnapshotState()
	if len(src) != 25 || src[8] != 1 || src[0] != 9 || idle[8] != 0 {
		t.Fatalf("snapshot layout: source %v, idle %v", src, idle)
	}
	before := fl.Informed()
	if err := nodes[2].RestoreState(src); err != nil {
		t.Fatal(err)
	}
	if fl.Informed() != before+1 {
		t.Fatalf("restoring an informed state: count %d, want %d", fl.Informed(), before+1)
	}
	if err := nodes[2].RestoreState(idle); err != nil {
		t.Fatal(err)
	}
	if fl.Informed() != before {
		t.Fatalf("restoring an idle state: count %d, want %d", fl.Informed(), before)
	}
	if r, ok := nodes[2].Rank(); ok || r != 0 {
		t.Fatalf("restored idle node holds rank %d", r)
	}
	if err := nodes[2].RestoreState(src[:24]); err == nil {
		t.Fatal("short state accepted")
	}
}
