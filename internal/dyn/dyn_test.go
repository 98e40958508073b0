package dyn

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/xrand"
)

func line(n int) *graph.Graph {
	g := graph.New(n)
	for v := 0; v+1 < n; v++ {
		g.AddEdge(v, v+1)
	}
	return g
}

func TestScheduleEpochAt(t *testing.T) {
	base := line(5)
	s, err := New(base, []EpochSpec{
		{Start: 10, Delta: Delta{Remove: []graph.Edge{{U: 2, V: 3}}}},
		{Start: 25, Delta: Delta{Add: []graph.Edge{{U: 2, V: 3}, {U: 0, V: 4}}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Epochs() != 3 || s.N() != 5 || s.LastStart() != 25 {
		t.Fatalf("shape: epochs=%d n=%d last=%d", s.Epochs(), s.N(), s.LastStart())
	}
	cases := []struct {
		step, wantEpoch, wantNext int
	}{
		{-3, 0, 10}, {0, 0, 10}, {9, 0, 10},
		{10, 1, 25}, {24, 1, 25},
		{25, 2, -1}, {1 << 20, 2, -1},
	}
	for _, c := range cases {
		csr, next := s.EpochAt(c.step)
		if csr != s.CSR(c.wantEpoch) || next != c.wantNext {
			t.Errorf("EpochAt(%d): epoch csr mismatch or next=%d (want epoch %d, next %d)",
				c.step, next, c.wantEpoch, c.wantNext)
		}
	}
	// Epoch 1 lost the middle edge; epoch 2 has it back plus the chord.
	if s.CSR(1).Graph().HasEdge(2, 3) {
		t.Fatal("epoch 1 should not have edge {2,3}")
	}
	g2 := s.CSR(2).Graph()
	if !g2.HasEdge(2, 3) || !g2.HasEdge(0, 4) {
		t.Fatal("epoch 2 missing re-added or new edge")
	}
	// The base graph must not have been mutated by construction.
	if !base.HasEdge(2, 3) || base.HasEdge(0, 4) {
		t.Fatal("New mutated the caller's base graph")
	}
}

func TestNewRejectsBadSpecs(t *testing.T) {
	base := line(3)
	if _, err := New(base, []EpochSpec{{Start: 0}}); err == nil {
		t.Fatal("want error for epoch start 0")
	}
	if _, err := New(base, []EpochSpec{{Start: 5}, {Start: 5}}); err == nil {
		t.Fatal("want error for non-increasing starts")
	}
	if _, err := New(graph.New(0), nil); err == nil {
		t.Fatal("want error for empty base")
	}
}

func TestChurnDeterministicAndShape(t *testing.T) {
	base := line(40)
	build := func() *Schedule {
		s, err := Churn(base, 6, 15, 0.3, xrand.New(11))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := build(), build()
	if a.Epochs() != b.Epochs() {
		t.Fatalf("churn not deterministic: %d vs %d epochs", a.Epochs(), b.Epochs())
	}
	for i := 0; i < a.Epochs(); i++ {
		if a.Start(i) != b.Start(i) || !a.CSR(i).Equal(b.CSR(i)) {
			t.Fatalf("churn epoch %d differs between identical builds", i)
		}
	}
	if a.Epochs() < 2 {
		t.Fatal("churn at 30% produced no mutated epochs")
	}
	// Epoch 0 is pristine; every epoch keeps a subset of base edges.
	if !a.CSR(0).Equal(base.Freeze()) {
		t.Fatal("epoch 0 is not the pristine base")
	}
	for i := 1; i < a.Epochs(); i++ {
		eg := a.CSR(i).Graph()
		for v := 0; v < eg.N(); v++ {
			for _, w := range eg.Neighbors(v) {
				if !base.HasEdge(v, int(w)) {
					t.Fatalf("churn epoch %d invented edge {%d,%d}", i, v, w)
				}
			}
		}
	}
}

func TestEdgeFaultsRates(t *testing.T) {
	base := line(60)
	s, err := EdgeFaults(base, 5, 10, 0.4, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	m := base.M()
	sawFewer := false
	for i := 1; i < s.Epochs(); i++ {
		mi := s.CSR(i).M()
		if mi > m {
			t.Fatalf("fault epoch %d has more edges (%d) than base (%d)", i, mi, m)
		}
		if mi < m {
			sawFewer = true
		}
	}
	if !sawFewer {
		t.Fatal("40% fault rate never removed an edge")
	}
	// failProb 0 must yield a single static epoch.
	s0, err := EdgeFaults(base, 5, 10, 0, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if s0.Epochs() != 1 {
		t.Fatalf("zero fault rate produced %d epochs, want 1", s0.Epochs())
	}
}

func TestPartitionHeal(t *testing.T) {
	base := line(10)
	side := make([]bool, 10)
	for v := 5; v < 10; v++ {
		side[v] = true
	}
	s, err := PartitionHeal(base, side, 20, 50)
	if err != nil {
		t.Fatal(err)
	}
	if s.Epochs() != 3 {
		t.Fatalf("epochs = %d, want 3", s.Epochs())
	}
	cut := s.CSR(1).Graph()
	if cut.HasEdge(4, 5) {
		t.Fatal("crossing edge survived the cut")
	}
	// Exactly two components: each side is connected and the two are apart.
	from0, from9 := cut.BFS(0), cut.BFS(9)
	for v := 0; v < 10; v++ {
		if (from0[v] == graph.Unreachable) != side[v] || (from9[v] == graph.Unreachable) == side[v] {
			t.Fatalf("vertex %d (side %v): dist from 0 = %d, from 9 = %d", v, side[v], from0[v], from9[v])
		}
	}
	// Healing restores the edge set (list order may differ: re-added edges
	// append at the end of their endpoints' neighbor lists).
	healed := s.CSR(2).Graph()
	if healed.M() != base.M() {
		t.Fatalf("healed epoch has %d edges, base has %d", healed.M(), base.M())
	}
	for v := 0; v < base.N(); v++ {
		for _, w := range base.Neighbors(v) {
			if !healed.HasEdge(v, int(w)) {
				t.Fatalf("healed epoch missing base edge {%d,%d}", v, w)
			}
		}
	}
	if _, err := PartitionHeal(base, side[:3], 20, 50); err == nil {
		t.Fatal("want error for short side marking")
	}
	if _, err := PartitionHeal(base, side, 50, 20); err == nil {
		t.Fatal("want error for heal before cut")
	}
}

func TestFromGraphsCollapsesDuplicates(t *testing.T) {
	a := line(6)
	b := line(6)
	c := line(6)
	c.AddEdge(0, 5)
	s, err := FromGraphs(8, []*graph.Graph{a, b, c})
	if err != nil {
		t.Fatal(err)
	}
	if s.Epochs() != 2 {
		t.Fatalf("epochs = %d, want 2 (identical consecutive graphs collapse)", s.Epochs())
	}
	if s.Start(1) != 16 {
		t.Fatalf("second epoch starts at %d, want 16", s.Start(1))
	}
	if !s.CSR(1).Graph().HasEdge(0, 5) {
		t.Fatal("second epoch missing the new edge")
	}
}
