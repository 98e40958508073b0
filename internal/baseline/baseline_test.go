package baseline

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/xrand"
)

func TestDecayBroadcastPath(t *testing.T) {
	g := gen.Path(60)
	res, err := DecayBroadcast(g, 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.CompleteStep < 0 {
		t.Fatal("BGI broadcast incomplete")
	}
	if res.Winner != 1 {
		t.Fatalf("winner %d", res.Winner)
	}
}

func TestDecayBroadcastClasses(t *testing.T) {
	rng := xrand.New(2)
	udg, _, err := gen.ConnectedUDG(100, 7, 40, rng)
	if err != nil {
		t.Fatal(err)
	}
	gnp, err := gen.GNPConnected(80, 0.08, 40, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range []*graph.Graph{gen.Grid(8, 8), gen.Clique(40), udg, gnp, gen.CliqueChain(5, 6)} {
		res, err := DecayBroadcast(g, 0, 0, uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		if res.CompleteStep < 0 {
			t.Fatalf("graph %d: incomplete", i)
		}
	}
}

func TestTruncatedDecayBroadcastPath(t *testing.T) {
	// On a path n/D ≈ 1, so the truncated sweep uses ~2 levels and should
	// finish faster than the full sweep for the same seed.
	g := gen.Path(120)
	full, err := DecayBroadcast(g, 0, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	trunc, err := TruncatedDecayBroadcast(g, 0, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if trunc.CompleteStep < 0 || full.CompleteStep < 0 {
		t.Fatal("incomplete")
	}
	if trunc.Levels >= full.Levels {
		t.Fatalf("truncated levels %d should be below full %d", trunc.Levels, full.Levels)
	}
	if trunc.CompleteStep >= full.CompleteStep*2 {
		t.Fatalf("truncated (%d) much slower than full (%d)", trunc.CompleteStep, full.CompleteStep)
	}
}

func TestMultiSourceDecayHighestWins(t *testing.T) {
	g := gen.Grid(6, 6)
	res, err := multiSourceDecay(g, map[int]int64{0: 5, 35: 77}, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Winner != 77 {
		t.Fatalf("winner %d", res.Winner)
	}
	if res.CompleteStep < 0 {
		t.Fatal("incomplete")
	}
}

func TestDecayLeaderElection(t *testing.T) {
	g := gen.Grid(7, 7)
	er, err := DecayLeaderElection(g, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if er.CompleteStep < 0 {
		t.Fatal("election incomplete")
	}
	if er.Candidates < 1 {
		t.Fatal("no candidates")
	}
}

func TestValidation(t *testing.T) {
	g := gen.Path(4)
	if _, err := DecayBroadcast(graph.New(0), 0, 0, 1); err == nil {
		t.Fatal("want empty error")
	}
	if _, err := run(g, nil, 3, 100, 1, nil); err == nil {
		t.Fatal("want no-sources error")
	}
	if _, err := run(g, map[int]int64{9: 1}, 3, 100, 1, nil); err == nil {
		t.Fatal("want range error")
	}
	disc := graph.New(4)
	disc.AddEdge(0, 1)
	disc.AddEdge(2, 3)
	if _, err := DecayBroadcast(disc, 0, 0, 1); err == nil {
		t.Fatal("want disconnected error")
	}
}

func TestDecayBroadcastDeterministic(t *testing.T) {
	g := gen.Grid(5, 5)
	a, err := DecayBroadcast(g, 0, 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := DecayBroadcast(g, 0, 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	if a.CompleteStep != b.CompleteStep {
		t.Fatalf("non-deterministic: %d vs %d", a.CompleteStep, b.CompleteStep)
	}
}

func TestDecayBroadcastScalesWithDLogN(t *testing.T) {
	// Shape check: on paths, completion ≈ c·D·log n. The ratio
	// complete/(D·levels) should stay within a modest band as n doubles.
	ratios := []float64{}
	for _, n := range []int{40, 80, 160} {
		g := gen.Path(n)
		res, err := DecayBroadcast(g, 0, 0, 11)
		if err != nil {
			t.Fatal(err)
		}
		if res.CompleteStep < 0 {
			t.Fatalf("n=%d incomplete", n)
		}
		ratios = append(ratios, float64(res.CompleteStep)/float64((n-1)*res.Levels))
	}
	for _, r := range ratios {
		if r < 0.05 || r > 3 {
			t.Fatalf("ratio %v outside plausibility band (all=%v)", r, ratios)
		}
	}
}
