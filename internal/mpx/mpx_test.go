package mpx

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/xrand"
)

func allVertices(n int) []int {
	vs := make([]int, n)
	for i := range vs {
		vs[i] = i
	}
	return vs
}

func TestPartitionValidation(t *testing.T) {
	g := gen.Path(5)
	rng := xrand.New(1)
	if _, err := Partition(graph.New(0), nil, 0.5, rng); err == nil {
		t.Fatal("want empty-graph error")
	}
	if _, err := Partition(g, allVertices(5), 0, rng); err == nil {
		t.Fatal("want beta error")
	}
	if _, err := Partition(g, nil, 0.5, rng); err == nil {
		t.Fatal("want no-centers error")
	}
	if _, err := Partition(g, []int{9}, 0.5, rng); err == nil {
		t.Fatal("want center-range error")
	}
}

func TestPartitionCoversConnectedGraph(t *testing.T) {
	rng := xrand.New(2)
	graphs := []*graph.Graph{
		gen.Path(50), gen.Grid(7, 7), gen.Clique(20), gen.GNP(60, 0.1, rng),
	}
	for i, g := range graphs {
		if !g.Connected() {
			continue
		}
		a, err := Partition(g, allVertices(g.N()), 0.3, rng)
		if err != nil {
			t.Fatal(err)
		}
		for u, c := range a.Center {
			if c < 0 {
				t.Fatalf("graph %d: node %d unassigned", i, u)
			}
		}
		if err := a.ValidateClusters(g); err != nil {
			t.Fatalf("graph %d: %v", i, err)
		}
	}
}

func TestPartitionMISCenters(t *testing.T) {
	rng := xrand.New(3)
	g := gen.Grid(8, 8)
	misSet := g.GreedyMIS(nil)
	a, err := Partition(g, misSet, 0.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	inMIS := map[int]bool{}
	for _, v := range misSet {
		inMIS[v] = true
	}
	for u, c := range a.Center {
		if c < 0 {
			t.Fatalf("node %d unassigned", u)
		}
		if !inMIS[c] {
			t.Fatalf("node %d assigned to non-MIS center %d", u, c)
		}
	}
	if err := a.ValidateClusters(g); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionHopsAreTrueDistances(t *testing.T) {
	rng := xrand.New(4)
	g := gen.Grid(6, 6)
	a, err := Partition(g, allVertices(g.N()), 0.4, rng)
	if err != nil {
		t.Fatal(err)
	}
	for u, c := range a.Center {
		dist := g.BFS(c)
		if a.Hops[u] != dist[u] {
			t.Fatalf("node %d: hops %d but dist(u,center)=%d", u, a.Hops[u], dist[u])
		}
	}
}

func TestPartitionLargeBetaGivesSingletons(t *testing.T) {
	// β → ∞ means shifts ≈ 0: every center wins itself; with all nodes as
	// centers every cluster should be tiny (radius 0 or 1 boundary ties).
	rng := xrand.New(5)
	g := gen.Path(40)
	a, err := Partition(g, allVertices(40), 50, rng)
	if err != nil {
		t.Fatal(err)
	}
	if a.MaxRadius() > 1 {
		t.Fatalf("max radius %d with huge beta", a.MaxRadius())
	}
	if a.NumClusters() < 20 {
		t.Fatalf("only %d clusters with huge beta", a.NumClusters())
	}
}

func TestPartitionSmallBetaGivesFewClusters(t *testing.T) {
	rng := xrand.New(6)
	g := gen.Path(40)
	small, err := Partition(g, allVertices(40), 0.01, rng)
	if err != nil {
		t.Fatal(err)
	}
	big, err := Partition(g, allVertices(40), 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	if small.NumClusters() >= big.NumClusters() {
		t.Fatalf("clusters: beta=0.01 → %d, beta=5 → %d; want fewer for smaller beta",
			small.NumClusters(), big.NumClusters())
	}
}

func TestPartitionClusterRadiusBound(t *testing.T) {
	// MPX: radii are O(log n / β) whp. Check a generous multiple.
	rng := xrand.New(7)
	g := gen.Grid(10, 10)
	const beta = 0.5
	for trial := 0; trial < 10; trial++ {
		a, err := Partition(g, allVertices(g.N()), beta, rng)
		if err != nil {
			t.Fatal(err)
		}
		bound := int(6 * math.Log(float64(g.N())) / beta)
		if a.MaxRadius() > bound {
			t.Fatalf("trial %d: radius %d exceeds %d", trial, a.MaxRadius(), bound)
		}
	}
}

func TestDisconnectedGraphPartialAssignment(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(0, 1) // component {0,1}; {2,3} isolated vertices
	g.AddEdge(2, 3)
	rng := xrand.New(9)
	a, err := Partition(g, []int{0}, 0.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	if a.Center[0] != 0 || a.Center[1] != 0 {
		t.Fatalf("component of center unassigned: %v", a.Center)
	}
	if a.Center[2] != -1 || a.Center[3] != -1 {
		t.Fatalf("unreachable nodes should be unassigned: %v", a.Center)
	}
}
