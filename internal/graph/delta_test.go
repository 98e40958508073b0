package graph

import (
	"testing"

	"repro/internal/xrand"
)

func TestApplyDeltaBasic(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	orig := g.Freeze()

	u := g.ApplyDelta(
		[]Edge{{1, 2}},         // drop the middle edge
		[]Edge{{0, 3}, {0, 2}}, // close a cycle plus a chord
	)
	if g.HasEdge(1, 2) {
		t.Fatal("removed edge still present")
	}
	for _, e := range [][2]int{{0, 3}, {0, 2}, {0, 1}, {2, 3}} {
		if !g.HasEdge(e[0], e[1]) {
			t.Fatalf("edge %v missing after delta", e)
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("post-delta graph invalid: %v", err)
	}
	g.Revert(u)
	if !g.Freeze().Equal(orig) {
		t.Fatal("Revert did not restore the original CSR")
	}
}

func TestApplyDeltaIgnoresInvalidAndNoop(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	orig := g.Freeze()
	u := g.ApplyDelta(
		[]Edge{{0, 2}, {1, 1}, {-1, 0}, {0, 5}}, // absent, loop, out of range
		[]Edge{{0, 1}, {2, 2}, {4, 1}},          // present, loop, out of range
	)
	if !g.Freeze().Equal(orig) {
		t.Fatal("no-op delta changed the graph")
	}
	g.Revert(u)
	if !g.Freeze().Equal(orig) {
		t.Fatal("reverting a no-op delta changed the graph")
	}
}

// TestApplyDeltaStackedRandom stacks random deltas on a random base graph and
// reverts them in reverse order, checking the CSR round-trips exactly at
// every level — the property the dyn schedule machinery is built on.
func TestApplyDeltaStackedRandom(t *testing.T) {
	rng := xrand.New(99)
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(24)
		g := New(n)
		for i := 0; i < 3*n; i++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		var snaps []*CSR
		var undos []*Undo
		snaps = append(snaps, g.Freeze())
		for d := 0; d < 5; d++ {
			var rem, add []Edge
			for i := 0; i < n/2+1; i++ {
				rem = append(rem, Edge{int32(rng.Intn(n)), int32(rng.Intn(n))})
				add = append(add, Edge{int32(rng.Intn(n)), int32(rng.Intn(n))})
			}
			undos = append(undos, g.ApplyDelta(rem, add))
			if err := g.Validate(); err != nil {
				t.Fatalf("trial %d delta %d: invalid graph: %v", trial, d, err)
			}
			snaps = append(snaps, g.Freeze())
		}
		for d := len(undos) - 1; d >= 0; d-- {
			g.Revert(undos[d])
			if !g.Freeze().Equal(snaps[d]) {
				t.Fatalf("trial %d: revert to level %d did not round-trip", trial, d)
			}
		}
	}
}

func TestCSRGraphRoundTrip(t *testing.T) {
	rng := xrand.New(7)
	g := New(12)
	for i := 0; i < 30; i++ {
		g.AddEdge(rng.Intn(12), rng.Intn(12))
	}
	c := g.Freeze()
	back := c.Graph()
	if !back.Freeze().Equal(c) {
		t.Fatal("CSR.Graph().Freeze() differs from the source CSR")
	}
	// The materialized graph is independently mutable.
	back.AddEdge(0, 11)
	if g.HasEdge(0, 11) && !c.Graph().HasEdge(0, 11) {
		t.Fatal("materialized graph shares storage with the source")
	}
}

func TestCSREqual(t *testing.T) {
	a := New(3)
	a.AddEdge(0, 1)
	b := New(3)
	b.AddEdge(0, 1)
	if !a.Freeze().Equal(b.Freeze()) {
		t.Fatal("identical graphs compare unequal")
	}
	b.AddEdge(1, 2)
	if a.Freeze().Equal(b.Freeze()) {
		t.Fatal("different graphs compare equal")
	}
	// Same edge set inserted in a different order → different list order.
	c := New(3)
	c.AddEdge(1, 2)
	c.AddEdge(0, 1)
	if b.Freeze().Equal(c.Freeze()) {
		t.Fatal("Equal must be order-sensitive")
	}
}

// TestWithDeltaMatchesApplyDelta pins CSR.WithDelta to its definition:
// materialize, ApplyDelta, Freeze. Deltas draw from a window one past each
// end of the vertex range, so absent removals, present or repeated
// additions, self-loops, out-of-range endpoints and edges removed and
// re-added in one batch all occur; packed inputs and stacked deltas are
// covered too.
func TestWithDeltaMatchesApplyDelta(t *testing.T) {
	rng := xrand.New(2024)
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(30)
		g := New(n)
		for i := 0; i < 2*n; i++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		c := g.Freeze()
		if trial%3 == 0 {
			c = c.Pack()
		}
		edge := func() Edge {
			return Edge{int32(rng.Intn(n+2) - 1), int32(rng.Intn(n+2) - 1)}
		}
		for d := 0; d < 4; d++ {
			var rem, add []Edge
			for i := rng.Intn(n + 1); i > 0; i-- {
				rem = append(rem, edge())
			}
			for i := rng.Intn(n + 1); i > 0; i-- {
				add = append(add, edge())
			}
			if len(rem) > 0 && rng.Intn(2) == 0 {
				add = append(add, rem[0], rem[0])
			}
			want := c.Graph()
			want.ApplyDelta(rem, add)
			got := c.WithDelta(rem, add)
			if !got.Equal(want.Freeze()) {
				t.Fatalf("trial %d delta %d: WithDelta differs from ApplyDelta+Freeze\nremove %v\nadd %v", trial, d, rem, add)
			}
			if got.IsPacked() {
				t.Fatal("WithDelta must return a flat snapshot")
			}
			c = got
		}
	}
}
