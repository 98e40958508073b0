package decay

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/radio"
	"repro/internal/xrand"
)

func TestStepsPerIteration(t *testing.T) {
	cases := []struct{ n, want int }{
		{1, 1}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4}, {1024, 10}, {1025, 11},
	}
	for _, tc := range cases {
		if got := StepsPerIteration(tc.n); got != tc.want {
			t.Errorf("StepsPerIteration(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

// fixedCoin returns a scripted sequence of coin results.
type fixedCoin struct {
	results []bool
	i       int
}

func (f *fixedCoin) Bernoulli(p float64) bool {
	if f.i >= len(f.results) {
		return false
	}
	r := f.results[f.i]
	f.i++
	return r
}

func TestPhaseLen(t *testing.T) {
	p := NewPhase(16, 5, true, "m", &fixedCoin{})
	if p.Len() != 4*5 {
		t.Fatalf("Len = %d, want 20", p.Len())
	}
	// iterations clamp to >= 1
	p2 := NewPhase(16, 0, false, nil, &fixedCoin{})
	if p2.Len() != 4 {
		t.Fatalf("Len = %d, want 4", p2.Len())
	}
}

func TestPhaseInactiveNeverTransmits(t *testing.T) {
	p := NewPhase(8, 3, false, nil, &fixedCoin{results: []bool{true, true, true}})
	for s := 0; s < p.Len(); s++ {
		if p.Act(s).Transmit {
			t.Fatal("inactive phase transmitted")
		}
	}
}

func TestPhaseActiveTransmitsOnHeads(t *testing.T) {
	p := NewPhase(8, 1, true, "payload", &fixedCoin{results: []bool{true, false, true}})
	a := p.Act(0)
	if !a.Transmit || a.Msg != "payload" {
		t.Fatalf("step 0: %+v", a)
	}
	if p.Act(1).Transmit {
		t.Fatal("step 1 should listen")
	}
	if !p.Act(2).Transmit {
		t.Fatal("step 2 should transmit")
	}
}

func TestPhaseHeardBookkeeping(t *testing.T) {
	p := NewPhase(8, 1, false, nil, &fixedCoin{})
	if _, ok := p.Heard(); ok {
		t.Fatal("nothing heard yet")
	}
	p.Deliver(0, nil) // silence does not count
	p.Deliver(1, "first")
	p.Deliver(2, "second")
	msg, ok := p.Heard()
	if !ok || msg != "first" {
		t.Fatalf("Heard = %v %v", msg, ok)
	}
	if p.heardCount != 2 {
		t.Fatalf("heardCount = %d", p.heardCount)
	}
}

// runDecay executes amplified Decay on g with the given sender set and
// returns, per node, whether it heard anything.
func runDecay(t *testing.T, g *graph.Graph, senders map[int]bool, iterations int, seed uint64) []bool {
	t.Helper()
	nodes := make([]*Node, g.N())
	factory := func(info radio.NodeInfo) radio.Protocol {
		nodes[info.Index] = NewNode(info, iterations, senders[info.Index], info.Index)
		return nodes[info.Index]
	}
	res, err := radio.Run(g, factory, radio.Options{MaxSteps: 100000, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllDone {
		t.Fatal("decay did not terminate")
	}
	heard := make([]bool, g.N())
	for v, n := range nodes {
		_, heard[v] = n.Heard()
	}
	return heard
}

// TestClaim10SingleSender: one sender on a star — every leaf hears whp.
func TestClaim10SingleSender(t *testing.T) {
	g := gen.Star(32)
	heard := runDecay(t, g, map[int]bool{0: true}, 10, 1)
	for v := 1; v < g.N(); v++ {
		if !heard[v] {
			t.Fatalf("leaf %d heard nothing from single sender", v)
		}
	}
}

// TestClaim10DenseSenders: the hard case for Decay — all leaves of a star
// transmit and the center must still hear one whp thanks to the probability
// sweep (some step has ~1 expected transmitter).
func TestClaim10DenseSenders(t *testing.T) {
	g := gen.Star(64)
	senders := map[int]bool{}
	for v := 1; v < g.N(); v++ {
		senders[v] = true
	}
	failures := 0
	const trials = 20
	for trial := 0; trial < trials; trial++ {
		heard := runDecay(t, g, senders, 12, uint64(100+trial))
		if !heard[0] {
			failures++
		}
	}
	if failures > 0 {
		t.Fatalf("center failed to hear in %d/%d trials with amplified decay", failures, trials)
	}
}

// TestClaim10Clique: every non-sender in a clique with k senders hears, for
// k across the whole sweep range.
func TestClaim10Clique(t *testing.T) {
	for _, k := range []int{1, 3, 10, 40} {
		g := gen.Clique(48)
		senders := map[int]bool{}
		for v := 0; v < k; v++ {
			senders[v] = true
		}
		heard := runDecay(t, g, senders, 12, uint64(7*k+1))
		for v := k; v < g.N(); v++ {
			if !heard[v] {
				t.Fatalf("k=%d: node %d heard nothing", k, v)
			}
		}
	}
}

// TestSendersDetectEachOther: senders listen when not transmitting, so two
// adjacent senders hear each other whp over enough iterations (needed by
// Radio MIS marked-neighbor detection).
func TestSendersDetectEachOther(t *testing.T) {
	g := gen.Path(2)
	misses := 0
	const trials = 30
	for trial := 0; trial < trials; trial++ {
		// With n=2 each iteration is a single step with transmit prob 1/2;
		// 60 iterations drive the per-trial miss probability below 1e-7.
		heard := runDecay(t, g, map[int]bool{0: true, 1: true}, 60, uint64(trial))
		if !heard[0] || !heard[1] {
			misses++
		}
	}
	if misses > 0 {
		t.Fatalf("adjacent senders failed to detect each other in %d/%d trials", misses, trials)
	}
}

// TestNoSenderSilence: with an empty sender set nothing is ever heard.
func TestNoSenderSilence(t *testing.T) {
	g := gen.Clique(16)
	heard := runDecay(t, g, nil, 5, 3)
	for v, h := range heard {
		if h {
			t.Fatalf("node %d heard a ghost transmission", v)
		}
	}
}

// TestNonNeighborsOfSendersHearNothing: Claim 10 promises delivery only to
// neighbors of S; nodes at distance 2 must stay silent within one block.
func TestNonNeighborsOfSendersHearNothing(t *testing.T) {
	g := gen.Path(5) // 0-1-2-3-4, sender {0}
	heard := runDecay(t, g, map[int]bool{0: true}, 10, 9)
	if !heard[1] {
		t.Fatal("direct neighbor should hear")
	}
	for v := 2; v <= 4; v++ {
		if heard[v] {
			t.Fatalf("node %d at distance ≥2 heard", v)
		}
	}
}

// TestDecaySuccessRateSingleIteration verifies the Ω(1) per-iteration
// success probability underlying Claim 10 on a moderately dense instance.
func TestDecaySuccessRateSingleIteration(t *testing.T) {
	g := gen.Star(33)
	senders := map[int]bool{}
	for v := 1; v < g.N(); v++ {
		senders[v] = true
	}
	hits := 0
	const trials = 200
	for trial := 0; trial < trials; trial++ {
		heard := runDecay(t, g, senders, 1, uint64(trial))
		if heard[0] {
			hits++
		}
	}
	rate := float64(hits) / trials
	if rate < 0.2 {
		t.Fatalf("single-iteration decay success rate %v, want Ω(1) (≥0.2)", rate)
	}
}

func TestNodeActAfterDoneListens(t *testing.T) {
	info := radio.NodeInfo{N: 4, RNG: xrand.New(1)}
	n := NewNode(info, 1, true, "m")
	for s := 0; s < n.phase.Len(); s++ {
		n.Act(s)
		n.Deliver(s, nil)
	}
	if !n.Done() {
		t.Fatal("node should be done")
	}
	if n.Act(99).Transmit {
		t.Fatal("done node must not transmit")
	}
}

// TestPow2NegMatchesMathPow pins the Decay-probability helper bit for bit
// to the math.Pow it replaced, across the table, the Ldexp tail, the
// subnormal range and underflow to zero — so no Bernoulli draw can move.
func TestPow2NegMatchesMathPow(t *testing.T) {
	for k := 0; k <= 1100; k++ {
		if got, want := Pow2Neg(k), math.Pow(2, -float64(k)); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Pow2Neg(%d) = %v (%#x), math.Pow gives %v (%#x)", k, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

// TestScaleByPow2NegMatchesDivision pins the MIS degree-phase rewrite
// p / 2^b → p · 2^-b: scaling by an exact power of two rounds once either
// way, so the products agree bit for bit.
func TestScaleByPow2NegMatchesDivision(t *testing.T) {
	rng := xrand.New(5)
	for i := 0; i < 20000; i++ {
		p := rng.Float64()
		b := i % 80
		if got, want := p*Pow2Neg(b), p/math.Pow(2, float64(b)); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("p=%v b=%d: %v vs %v", p, b, got, want)
		}
	}
}
