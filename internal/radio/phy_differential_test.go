package radio_test

// PHY-layer differential: the engine with phy.SINR in exact mode must
// reproduce the deleted internal/sinr standalone loop decision for decision
// (reimplemented here, verbatim, as the test reference).

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/phy"
	"repro/internal/radio"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// sinrGossipNode transmits its rumor with probability decaying in how much
// it has heard, so a single misdelivered step anywhere diverges the whole
// downstream transcript.
type sinrGossipNode struct {
	rng    *xrand.RNG
	heard  int
	has    bool
	step   int
	budget int
}

func (g *sinrGossipNode) Act(step int) radio.Action {
	if g.has && g.rng.Bernoulli(1/float64(2+g.heard)) {
		return radio.Transmit(int64(1))
	}
	return radio.Listen()
}

func (g *sinrGossipNode) Deliver(step int, msg radio.Message) {
	g.step = step + 1
	if msg != nil {
		g.heard++
		g.has = true
	}
}

func (g *sinrGossipNode) Done() bool { return g.step >= g.budget }

func gossipFactory(budget int) radio.Factory {
	return func(info radio.NodeInfo) radio.Protocol {
		return &sinrGossipNode{rng: info.RNG, has: info.Index == 0, budget: budget}
	}
}

// referenceSINRRun is the deleted internal/sinr execution loop, kept here
// as the old-vs-new oracle: dense O(#tx·n) decoding with exact interference
// sums in ascending transmitter order, act-then-deliver per step, per-node
// RNGs split from the seed by index — exactly what the engine does, minus
// retirement (the old loop polled Done every step instead).
func referenceSINRRun(pts []gen.Point, factory radio.Factory, power, pathLoss, noise, beta float64, maxSteps int, seed uint64) radio.Result {
	n := len(pts)
	root := xrand.New(seed)
	nodes := make([]radio.Protocol, n)
	for v := 0; v < n; v++ {
		nodes[v] = factory(radio.NodeInfo{Index: v, N: n, RNG: root.Split(uint64(v))})
	}
	var res radio.Result
	transmitting := make([]bool, n)
	payload := make([]radio.Message, n)
	live := make([]bool, n)
	var txIdx []int
	decode := func(v int) (int, bool) {
		if len(txIdx) == 0 {
			return 0, false
		}
		var total float64
		best, bestPow := -1, 0.0
		for _, u := range txIdx {
			d := pts[u].Dist(pts[v])
			if d == 0 {
				d = 1e-9
			}
			pow := power * math.Pow(d, -pathLoss)
			total += pow
			if pow > bestPow {
				best, bestPow = u, pow
			}
		}
		if bestPow/(noise+(total-bestPow)) >= beta {
			return best, true
		}
		return 0, false
	}
	for step := 0; step < maxSteps; step++ {
		anyLive := false
		for v := 0; v < n; v++ {
			live[v] = !nodes[v].Done()
			anyLive = anyLive || live[v]
		}
		if !anyLive {
			res.AllDone = true
			break
		}
		txIdx = txIdx[:0]
		for v := 0; v < n; v++ {
			transmitting[v] = false
			payload[v] = nil
			if !live[v] {
				continue
			}
			a := nodes[v].Act(step)
			if a.Transmit {
				transmitting[v] = true
				payload[v] = a.Msg
				txIdx = append(txIdx, v)
				res.Transmissions++
			}
		}
		for v := 0; v < n; v++ {
			if !live[v] {
				continue
			}
			var msg radio.Message
			if !transmitting[v] {
				if u, ok := decode(v); ok {
					msg = payload[u]
					res.Deliveries++
				}
			}
			nodes[v].Deliver(step, msg)
		}
		res.Steps = step + 1
	}
	if !res.AllDone {
		res.AllDone = true
		for _, p := range nodes {
			if !p.Done() {
				res.AllDone = false
				break
			}
		}
	}
	return res
}

// TestSINREngineMatchesReferenceLoop is the old-vs-new differential: on
// random deployments and seeds, the unified engine with phy.SINR in exact
// mode must produce the same per-node transcripts, step counts, and
// delivery totals as the pre-PHY loop. (Collision counts are excluded: the
// old loop counted every live listener whenever ≥2 transmitters existed
// anywhere; the PHY model counts listeners actually reached — a documented
// stats-only change.)
func TestSINREngineMatchesReferenceLoop(t *testing.T) {
	rng := xrand.New(123)
	for trial := 0; trial < 8; trial++ {
		n := 24 + rng.Intn(40)
		side := math.Sqrt(float64(n) * math.Pi / 8)
		pts := gen.UniformPoints(n, 2, side, rng)
		seed := rng.Uint64()
		const steps = 60

		refHash := trace.NewHasher()
		refRes := referenceSINRRun(pts, refHash.Wrap(gossipFactory(steps)), 1, 4, 0.5, 2, steps, seed)

		model, err := phy.NewSINR(pts, phy.SINRParams{CutoffFactor: math.Inf(1)})
		if err != nil {
			t.Fatal(err)
		}
		engHash := trace.NewHasher()
		// The graph hands the engine its node count and estimates; SINR
		// ignores its edges, and the gossip protocol ignores the estimates,
		// so an edgeless graph keeps the comparison free of D-estimate
		// differences between the old loop and the engine.
		g := gen.Path(n)
		engRes, err := radio.Run(g, engHash.Wrap(gossipFactory(steps)), radio.Options{
			MaxSteps: steps, Seed: seed, PHY: model,
		})
		if err != nil {
			t.Fatal(err)
		}
		if refHash.Sum() != engHash.Sum() {
			t.Fatalf("trial %d (n=%d): transcript digests differ: reference %#x vs engine %#x",
				trial, n, refHash.Sum(), engHash.Sum())
		}
		if refRes.Steps != engRes.Steps || refRes.Transmissions != engRes.Transmissions ||
			refRes.Deliveries != engRes.Deliveries || refRes.AllDone != engRes.AllDone {
			t.Fatalf("trial %d (n=%d): results differ: reference %+v vs engine %+v",
				trial, n, refRes, engRes)
		}
	}
}
