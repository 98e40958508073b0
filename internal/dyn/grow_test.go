package dyn

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/xrand"
)

// sameSchedule reports the first difference between two schedules: epoch
// count, starts, snapshots (list order included) or deltas.
func sameSchedule(t *testing.T, what string, got, want *Schedule) {
	t.Helper()
	if got.Epochs() != want.Epochs() {
		t.Fatalf("%s: %d epochs, want %d", what, got.Epochs(), want.Epochs())
	}
	for i := 0; i < want.Epochs(); i++ {
		if got.Start(i) != want.Start(i) || !got.CSR(i).Equal(want.CSR(i)) ||
			!reflect.DeepEqual(got.Delta(i), want.Delta(i)) {
			t.Fatalf("%s: epoch %d differs", what, i)
		}
	}
}

func randomBase(seed uint64, n int) *graph.Graph {
	rng := xrand.New(seed)
	g := graph.New(n)
	for i := 0; i < 3*n; i++ {
		g.AddEdge(rng.Intn(n), rng.Intn(n))
	}
	return g
}

// The generators written as one-shot loops over New, drawing every epoch
// up front: the independent definitions Churn, EdgeFaults and their
// growers must reproduce.
func referenceChurn(base *graph.Graph, epochs, epochLen int, downFrac float64, rng *xrand.RNG) (*Schedule, error) {
	n := base.N()
	prevDown, down := make([]bool, n), make([]bool, n)
	var specs []EpochSpec
	for e := 1; e <= epochs; e++ {
		for v := range down {
			down[v] = rng.Bernoulli(downFrac)
		}
		var d Delta
		for u := 0; u < n; u++ {
			for _, v := range base.Neighbors(u) {
				was, is := !prevDown[u] && !prevDown[v], !down[u] && !down[v]
				switch {
				case int(v) <= u:
				case was && !is:
					d.Remove = append(d.Remove, graph.Edge{U: int32(u), V: v})
				case !was && is:
					d.Add = append(d.Add, graph.Edge{U: int32(u), V: v})
				}
			}
		}
		if !d.empty() {
			specs = append(specs, EpochSpec{Start: e * epochLen, Delta: d})
		}
		copy(prevDown, down)
	}
	return New(base, specs)
}

func referenceEdgeFaults(base *graph.Graph, epochs, epochLen int, failProb float64, rng *xrand.RNG) (*Schedule, error) {
	prevFailed := map[graph.Edge]bool{}
	var specs []EpochSpec
	for e := 1; e <= epochs; e++ {
		failed := map[graph.Edge]bool{}
		var d Delta
		for u := 0; u < base.N(); u++ {
			for _, v := range base.Neighbors(u) {
				if int(v) <= u {
					continue
				}
				key := graph.Edge{U: int32(u), V: v}
				f := rng.Bernoulli(failProb)
				failed[key] = f
				switch {
				case f && !prevFailed[key]:
					d.Remove = append(d.Remove, key)
				case !f && prevFailed[key]:
					d.Add = append(d.Add, key)
				}
			}
		}
		if !d.empty() {
			specs = append(specs, EpochSpec{Start: e * epochLen, Delta: d})
		}
		prevFailed = failed
	}
	return New(base, specs)
}

type generator struct {
	name      string
	reference func(base *graph.Graph, epochs int, rng *xrand.RNG) (*Schedule, error)
	oneShot   func(base *graph.Graph, epochs int, rng *xrand.RNG) (*Schedule, error)
	grower    func(base *graph.Graph, rng *xrand.RNG) (*Grower, error)
}

var generators = []generator{
	{"churn",
		func(b *graph.Graph, e int, r *xrand.RNG) (*Schedule, error) { return referenceChurn(b, e, 5, 0.3, r) },
		func(b *graph.Graph, e int, r *xrand.RNG) (*Schedule, error) { return Churn(b, e, 5, 0.3, r) },
		func(b *graph.Graph, r *xrand.RNG) (*Grower, error) { return NewChurn(b, 5, 0.3, r) }},
	{"faults",
		func(b *graph.Graph, e int, r *xrand.RNG) (*Schedule, error) {
			return referenceEdgeFaults(b, e, 5, 0.2, r)
		},
		func(b *graph.Graph, e int, r *xrand.RNG) (*Schedule, error) { return EdgeFaults(b, e, 5, 0.2, r) },
		func(b *graph.Graph, r *xrand.RNG) (*Grower, error) { return NewEdgeFaults(b, 5, 0.2, r) }},
}

// TestGrowerMatchesOneShot: the one-shot generator matches its reference
// loop at every epoch count, and whatever order a grower is asked for
// epoch counts in — growing, shrinking, repeating, zero — Upto(E) is that
// schedule too; a schedule returned earlier is untouched by later growth.
func TestGrowerMatchesOneShot(t *testing.T) {
	base := randomBase(3, 40)
	for _, gen := range generators {
		fresh := func(e int) *Schedule {
			want, err := gen.reference(base, e, xrand.New(17))
			if err != nil {
				t.Fatal(err)
			}
			s, err := gen.oneShot(base, e, xrand.New(17))
			if err != nil {
				t.Fatal(err)
			}
			sameSchedule(t, gen.name+" one-shot", s, want)
			return want
		}
		gr, err := gen.grower(base, xrand.New(17))
		if err != nil {
			t.Fatal(err)
		}
		first := gr.Upto(4)
		for _, e := range []int{4, 2, 9, 9, 0, 15, 1, -1, 12} {
			sameSchedule(t, gen.name, gr.Upto(e), fresh(max(e, 0)))
		}
		sameSchedule(t, gen.name+" (earlier view)", first, fresh(4))
		if gr.MemBytes() <= 0 {
			t.Fatalf("%s: MemBytes %d", gen.name, gr.MemBytes())
		}
	}
}

// TestGrowerConcurrentUpto: concurrent callers asking one grower for
// different epoch counts each get the one-shot schedule (run under -race in
// CI).
func TestGrowerConcurrentUpto(t *testing.T) {
	base := randomBase(5, 30)
	for _, gen := range generators {
		gr, err := gen.grower(base, xrand.New(23))
		if err != nil {
			t.Fatal(err)
		}
		counts := []int{7, 3, 11, 0, 9, 11, 5, 2}
		got := make([]*Schedule, len(counts))
		var wg sync.WaitGroup
		for i, e := range counts {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = gr.Upto(e)
			}()
		}
		wg.Wait()
		for i, e := range counts {
			want, err := gen.reference(base, e, xrand.New(23))
			if err != nil {
				t.Fatal(err)
			}
			sameSchedule(t, gen.name, got[i], want)
		}
	}
}

func TestGrowerRejectsBadInput(t *testing.T) {
	if _, err := NewChurn(graph.New(0), 5, 0.3, xrand.New(1)); err == nil {
		t.Fatal("NewChurn accepted an empty base graph")
	}
	if _, err := NewEdgeFaults(line(3), 0, 0.3, xrand.New(1)); err == nil {
		t.Fatal("NewEdgeFaults accepted epochLen 0")
	}
}
