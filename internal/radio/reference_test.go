package radio

import (
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/phy"
	"repro/internal/xrand"
)

// runDelivery drives the engine's delivery core for one synthetic step: it
// loads the given transmit set into the Factory adapter's scratch, runs the
// PHY resolve pass over the frontier, hands a copy of hear to the caller,
// then resets the step and verifies the between-steps invariant (all
// engine and adapter scratch re-zeroed; a second resolve must see an empty
// medium).
func runDelivery(t *testing.T, g *graph.Graph, transmitting []bool, payload []Message, cd bool) ([]Message, StepStats) {
	t.Helper()
	n := g.N()
	opts := Options{PHY: phy.NewCollision(), Topology: staticCSR{g.Freeze()}}
	if cd {
		opts.PHY = phy.NewCollisionCD()
	}
	p := &perNode{payload: make([]Message, n), hear: make([]Message, n)}
	e, err := newEngine(n, p, opts)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < n; v++ {
		if transmitting[v] {
			p.payload[v] = payload[v]
			e.txList = append(e.txList, int32(v))
		}
	}
	p.tx = e.txList
	st := StepStats{}
	e.resolve(&st)
	p.receive(&e.out)
	hear := make([]Message, n)
	copy(hear, p.hear)
	p.clear(&e.out)
	e.clearStep()
	for v := 0; v < n; v++ {
		if e.frontier.Has(int32(v)) || p.payload[v] != nil || p.hear[v] != nil {
			t.Fatalf("scratch not re-zeroed at node %d after the step", v)
		}
	}
	if len(e.txList) != 0 {
		t.Fatal("txList not emptied")
	}
	// The model's own scratch must be clean too: resolving the empty
	// transmitter set must produce an empty outcome.
	var empty StepStats
	e.resolve(&empty)
	if empty.Deliveries != 0 || empty.Collisions != 0 {
		t.Fatalf("model scratch not re-zeroed: empty step resolved to %+v", empty)
	}
	e.clearStep()
	return hear, st
}

// TestDeliveryMatchesBruteForce checks the sparse touched-vertex delivery
// core against a direct transcription of the model's definition ("a
// listening node hears a message iff exactly one of its neighbors
// transmits") on random graphs with random transmit sets, with and without
// collision detection.
func TestDeliveryMatchesBruteForce(t *testing.T) {
	f := func(seed uint64, nRaw, density uint8, cd bool) bool {
		rng := xrand.New(seed)
		n := int(nRaw%30) + 2
		g := graph.New(n)
		p := float64(density%90+5) / 100
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Bernoulli(p) {
					g.AddEdge(u, v)
				}
			}
		}
		transmitting := make([]bool, n)
		payload := make([]Message, n)
		for v := 0; v < n; v++ {
			if rng.Bernoulli(0.4) {
				transmitting[v] = true
				payload[v] = v
			}
		}
		hear, _ := runDelivery(t, g, transmitting, payload, cd)
		// Brute force per the definition.
		for v := 0; v < n; v++ {
			var want Message
			if !transmitting[v] {
				count, from := 0, -1
				for _, w := range g.Neighbors(v) {
					if transmitting[w] {
						count++
						from = int(w)
					}
				}
				if count == 1 {
					want = payload[from]
				} else if count >= 2 && cd {
					want = Collision
				}
			}
			if hear[v] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestDeliveryStatsConsistent cross-checks the per-step counters against a
// recount from first principles.
func TestDeliveryStatsConsistent(t *testing.T) {
	rng := xrand.New(42)
	g := graph.New(25)
	for u := 0; u < 25; u++ {
		for v := u + 1; v < 25; v++ {
			if rng.Bernoulli(0.2) {
				g.AddEdge(u, v)
			}
		}
	}
	transmitting := make([]bool, 25)
	payload := make([]Message, 25)
	for v := range transmitting {
		if rng.Bernoulli(0.5) {
			transmitting[v] = true
			payload[v] = v
		}
	}
	_, st := runDelivery(t, g, transmitting, payload, false)
	deliveries, collisions := 0, 0
	for v := 0; v < 25; v++ {
		if transmitting[v] {
			continue
		}
		count := 0
		for _, w := range g.Neighbors(v) {
			if transmitting[w] {
				count++
			}
		}
		if count == 1 {
			deliveries++
		}
		if count >= 2 {
			collisions++
		}
	}
	if st.Deliveries != deliveries || st.Collisions != collisions {
		t.Fatalf("stats (%d,%d) vs recount (%d,%d)",
			st.Deliveries, st.Collisions, deliveries, collisions)
	}
}

// transcript is one run's externally observable behavior: per-node hashes
// of everything heard, the per-step stats stream, and the Result.
type transcript struct {
	hashes []uint64
	steps  []StepStats
	res    Result
}

// referenceGraphRun is the dense reference loop for the graph models, the
// independent side of TestEnginesTranscriptIdentical, written after
// referenceSINRRun (phy_differential_test.go). Each step every awake,
// not-yet-done node acts, in index order; each listener's transmitting
// neighbors are counted by brute force over the transmitter set; every
// awake live node is then delivered the message (exactly one transmitting
// neighbor), silence, or — with cd — the Collision marker (two or more).
// Stats count every reached listener, retired and dormant nodes included.
// It shares nothing with the engine but the Protocol interface and the
// per-node RNG split: no active list, frontier, PHY model or scratch reuse.
func referenceGraphRun(g *graph.Graph, factory Factory, opts Options, cd bool) Result {
	n := g.N()
	root := xrand.New(opts.Seed)
	nodes := make([]Protocol, n)
	for v := range nodes {
		nodes[v] = factory(NodeInfo{Index: v, N: opts.N, RNG: root.Split(uint64(v))})
	}
	awake := func(v, step int) bool { return opts.WakeAt == nil || step >= opts.WakeAt[v] }
	retired := make([]bool, n)
	transmitting := make([]bool, n)
	payload := make([]Message, n)
	hear := make([]Message, n)
	var txIdx []int
	var res Result
	for step := 0; step < opts.MaxSteps; step++ {
		st := StepStats{Step: step}
		live := false
		txIdx = txIdx[:0]
		for v := 0; v < n; v++ {
			transmitting[v], payload[v], hear[v] = false, nil, nil
			if retired[v] {
				continue
			}
			if !awake(v, step) {
				live = true // dormant nodes keep the run alive
				continue
			}
			if nodes[v].Done() {
				retired[v] = true
				continue
			}
			live = true
			if a := nodes[v].Act(step); a.Transmit {
				transmitting[v], payload[v] = true, a.Msg
				txIdx = append(txIdx, v)
				st.Transmits++
			}
		}
		if !live {
			res.AllDone = true
			break
		}
		for v := 0; v < n; v++ {
			if transmitting[v] {
				continue
			}
			count, from := 0, -1
			for _, u := range txIdx {
				if g.HasEdge(u, v) {
					count++
					from = u
				}
			}
			switch {
			case count == 1:
				hear[v] = payload[from]
				st.Deliveries++
			case count >= 2:
				if cd {
					hear[v] = Collision
				}
				st.Collisions++
			}
		}
		for v := 0; v < n; v++ {
			if !retired[v] && awake(v, step) {
				nodes[v].Deliver(step, hear[v])
			}
		}
		res.Steps = step + 1
		res.Transmissions += int64(st.Transmits)
		res.Deliveries += int64(st.Deliveries)
		res.Collisions += int64(st.Collisions)
		if opts.OnStep != nil {
			opts.OnStep(st)
		}
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

// runTranscript executes one run with hash-recording random protocols
// through run — the engine or the reference loop.
func runTranscript(t *testing.T, n int, opts Options, until int, run func(Factory, Options) (Result, error)) transcript {
	t.Helper()
	hashes := make([]uint64, n)
	factory := func(info NodeInfo) Protocol {
		rn := &randomNode{info: info, until: until}
		return &hashCapture{randomNode: rn, out: &hashes[info.Index]}
	}
	var steps []StepStats
	opts.OnStep = func(s StepStats) { steps = append(steps, s) }
	res, err := run(factory, opts)
	if err != nil {
		t.Fatal(err)
	}
	return transcript{hashes: hashes, steps: steps, res: res}
}

// TestEnginesTranscriptIdentical is the whole-run engine differential:
// across random graphs, seeds, collision-detection settings and staggered
// wake-ups, the engine must produce the same per-node transcripts, per-step
// stats, and Result as the dense reference loop.
func TestEnginesTranscriptIdentical(t *testing.T) {
	rng := xrand.New(99)
	for trial := 0; trial < 25; trial++ {
		n := rng.Intn(60) + 5
		g := graph.New(n)
		p := 0.05 + 0.3*rng.Float64()
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Bernoulli(p) {
					g.AddEdge(u, v)
				}
			}
		}
		cd := trial%2 == 0
		// An explicit estimate: the reference hands nodes opts.N verbatim.
		opts := Options{MaxSteps: 40, Seed: rng.Uint64(), N: n}
		if cd {
			opts.PHY = phy.NewCollisionCD()
		}
		if trial%3 == 0 {
			wake := make([]int, n)
			for v := range wake {
				wake[v] = rng.Intn(8)
			}
			opts.WakeAt = wake
		}
		got := runTranscript(t, n, opts, 30, func(f Factory, o Options) (Result, error) {
			return Run(g, f, o)
		})
		want := runTranscript(t, n, opts, 30, func(f Factory, o Options) (Result, error) {
			return referenceGraphRun(g, f, o, cd), nil
		})
		if got.res != want.res {
			t.Fatalf("trial %d: result %+v vs reference %+v", trial, got.res, want.res)
		}
		if len(got.steps) != len(want.steps) {
			t.Fatalf("trial %d: %d step records vs %d", trial, len(got.steps), len(want.steps))
		}
		for i := range want.steps {
			if got.steps[i] != want.steps[i] {
				t.Fatalf("trial %d: step %d stats %+v vs reference %+v", trial, i, got.steps[i], want.steps[i])
			}
		}
		for v := range want.hashes {
			if got.hashes[v] != want.hashes[v] {
				t.Fatalf("trial %d: node %d transcript differs from the reference", trial, v)
			}
		}
	}
}
