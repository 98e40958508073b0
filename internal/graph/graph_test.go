package graph

import (
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func path(n int) *Graph {
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

func clique(n int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddEdge(i, j)
		}
	}
	return g
}

func cycle(n int) *Graph {
	g := path(n)
	if n > 2 {
		g.AddEdge(0, n-1)
	}
	return g
}

func TestAddEdgeBasics(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0) // duplicate, reversed
	g.AddEdge(2, 2) // self-loop ignored
	g.AddEdge(-1, 3)
	g.AddEdge(3, 99)
	if g.M() != 1 {
		t.Fatalf("M = %d, want 1", g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("edge {0,1} missing")
	}
	if g.HasEdge(2, 2) || g.HasEdge(0, 2) {
		t.Fatal("unexpected edge present")
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestDegree(t *testing.T) {
	g := clique(5)
	for v := 0; v < 5; v++ {
		if g.Degree(v) != 4 {
			t.Fatalf("degree(%d) = %d, want 4", v, g.Degree(v))
		}
	}
	if g.MaxDegree() != 4 {
		t.Fatalf("MaxDegree = %d", g.MaxDegree())
	}
}

func TestBFSPath(t *testing.T) {
	g := path(6)
	dist := g.BFS(0)
	for v := 0; v < 6; v++ {
		if dist[v] != v {
			t.Fatalf("dist[%d] = %d, want %d", v, dist[v], v)
		}
	}
}

func TestBFSDisconnected(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	dist := g.BFS(0)
	if dist[2] != Unreachable || dist[3] != Unreachable {
		t.Fatalf("expected unreachable, got %v", dist)
	}
	if g.Connected() {
		t.Fatal("graph should be disconnected")
	}
}

func TestMultiBFS(t *testing.T) {
	g := path(10)
	dist := g.MultiBFS([]int{0, 9})
	want := []int{0, 1, 2, 3, 4, 4, 3, 2, 1, 0}
	for v := range want {
		if dist[v] != want[v] {
			t.Fatalf("dist[%d] = %d, want %d", v, dist[v], want[v])
		}
	}
}

func TestDiameter(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
		want int
	}{
		{"path6", path(6), 5},
		{"clique7", clique(7), 1},
		{"cycle8", cycle(8), 4},
		{"single", New(1), 0},
	}
	for _, tc := range cases {
		got, err := tc.g.Diameter()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != tc.want {
			t.Errorf("%s: diameter %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestDiameterDisconnected(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	if _, err := g.Diameter(); err != ErrDisconnected {
		t.Fatalf("want ErrDisconnected, got %v", err)
	}
	if _, err := g.DiameterApprox(); err != ErrDisconnected {
		t.Fatalf("approx: want ErrDisconnected, got %v", err)
	}
}

func TestDiameterApproxWithinFactor2(t *testing.T) {
	rng := xrand.New(99)
	for trial := 0; trial < 20; trial++ {
		n := 10 + rng.Intn(40)
		g := randomConnected(n, rng)
		exact, err := g.Diameter()
		if err != nil {
			t.Fatal(err)
		}
		approx, err := g.DiameterApprox()
		if err != nil {
			t.Fatal(err)
		}
		if approx > exact || 2*approx < exact {
			t.Fatalf("approx %d not in [exact/2, exact] for exact %d", approx, exact)
		}
	}
}

// randomConnected returns a random tree plus a few extra random edges.
func randomConnected(n int, rng *xrand.RNG) *Graph {
	g := New(n)
	for v := 1; v < n; v++ {
		g.AddEdge(v, rng.Intn(v))
	}
	for k := 0; k < n/3; k++ {
		g.AddEdge(rng.Intn(n), rng.Intn(n))
	}
	return g
}

func TestInducedSubgraph(t *testing.T) {
	g := cycle(6)
	sub, remap := g.InducedSubgraph([]int{0, 1, 2, 4})
	if sub.N() != 4 {
		t.Fatalf("N = %d", sub.N())
	}
	// edges kept: {0,1},{1,2}; {4} isolated within the kept set
	if sub.M() != 2 {
		t.Fatalf("M = %d, want 2", sub.M())
	}
	if !sub.HasEdge(remap[0], remap[1]) || !sub.HasEdge(remap[1], remap[2]) {
		t.Fatal("missing expected edges")
	}
	if sub.Degree(remap[4]) != 0 {
		t.Fatal("vertex 4 should be isolated in subgraph")
	}
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := path(4)
	c := g.Clone()
	c.AddEdge(0, 3)
	if g.HasEdge(0, 3) {
		t.Fatal("Clone shares storage with original")
	}
}

func TestValidatePropertyRandomGraphs(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		rng := xrand.New(seed)
		n := int(nRaw%40) + 2
		g := randomConnected(n, rng)
		return g.Validate() == nil && g.Connected()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSortAdjacency(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 3)
	g.AddEdge(0, 1)
	g.AddEdge(0, 4)
	g.AddEdge(0, 2)
	g.SortAdjacency()
	nb := g.Neighbors(0)
	for i := 1; i < len(nb); i++ {
		if nb[i-1] >= nb[i] {
			t.Fatalf("adjacency not sorted: %v", nb)
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}
