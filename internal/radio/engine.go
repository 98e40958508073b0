package radio

import (
	"fmt"
	"time"

	"repro/internal/graph"
	"repro/internal/phy"
)

// engine is the step-loop state of a run: the frozen CSR topology, the
// protocol instances, the physical-layer reception model, and reusable
// scratch buffers sized once at construction so the per-step loop
// allocates nothing. Under a dynamic
// topology (Options.Topology) csr is the snapshot of the current epoch and
// epochSync swaps it at epoch boundaries (re-syncing the PHY model); the
// scratch buffers are indexed by node and the node count is fixed for the
// whole run, so they survive every epoch unchanged.
//
// Sparse-delivery invariants (DESIGN.md §3): between steps every scratch
// entry is at its zero value — payload[v]=nil, hear[v]=nil — txList/out and
// the frontier are empty, and the model's own scratch is likewise all-zero
// (the phy.Model.Clear contract). Each step dirties only the entries
// reachable from this step's transmitters and resetStep restores the
// invariant by re-zeroing exactly those, so delivery work is proportional
// to the transmitters and the listeners they reach, never to n.
type engine struct {
	csr       *graph.CSR
	topo      Topology // nil for static runs
	nextEpoch int      // step of the next topology change; -1 = static from here
	nodes     []Protocol
	opts      Options
	model     phy.Model

	payload  []Message    // payload[v]: message v transmits
	hear     []Message    // hear[v]: message v receives (nil = silence)
	txList   []int32      // this step's transmitters, ascending
	frontier phy.Frontier // this step's transmitter set, fed to Resolve
	out      phy.Outcome  // this step's reception outcome, buffers reused

	// Probe state (Options.Probe): one reused sample plus the previous
	// fire's step/time/transmission cursor for window rates. Touched only
	// at epoch boundaries and at run end, never inside the step loop, so
	// the probe adds nothing to the zero-alloc contract (DESIGN.md §10).
	probeSample ProbeSample
	probeStats  phy.StatsSource // e.model when it reports stats, else nil
	probeStep   int
	probeTime   time.Time
	probeTx     int64
}

func newEngine(g *graph.Graph, nodes []Protocol, opts Options) (*engine, error) {
	n := len(nodes)
	e := &engine{
		topo:      opts.Topology,
		nextEpoch: -1,
		nodes:     nodes,
		opts:      opts,
		model:     opts.PHY,
		payload:   make([]Message, n),
		hear:      make([]Message, n),
		txList:    make([]int32, 0, n),
	}
	e.frontier.Resize(n)
	e.out.Decoded = make([]phy.Decode, 0, n)
	e.out.Collided = make([]int32, 0, n)
	if e.topo != nil {
		e.csr, e.nextEpoch = e.topo.EpochAt(0)
	} else {
		e.csr = g.Freeze()
	}
	if err := e.model.Sync(0, e.csr); err != nil {
		return nil, fmt.Errorf("radio: %s model rejected the run: %w", e.model.Name(), err)
	}
	if opts.Probe != nil {
		e.probeStats, _ = e.model.(phy.StatsSource)
		e.probeTime = time.Now()
	}
	return e, nil
}

// fireProbe fills the engine's reused ProbeSample with the state at step
// (cumulative counters from res, window rates since the previous fire) and
// hands it to Options.Probe. Called at epoch boundaries and once after the
// final step — never inside the steady-state step loop — and allocates
// nothing, so arming the probe preserves the zero-alloc contract.
func (e *engine) fireProbe(step, active int, res Result, final bool) {
	now := time.Now()
	window := step - e.probeStep
	s := &e.probeSample
	*s = ProbeSample{
		Step:          step,
		Final:         final,
		Active:        active,
		WindowSteps:   window,
		Transmissions: res.Transmissions,
		Deliveries:    res.Deliveries,
		Collisions:    res.Collisions,
	}
	if window > 0 {
		if dt := now.Sub(e.probeTime).Seconds(); dt > 0 {
			s.StepsPerSec = float64(window) / dt
		}
		s.AvgFrontier = float64(res.Transmissions-e.probeTx) / float64(window)
	}
	if e.probeStats != nil {
		s.PHY = e.probeStats.Stats()
		s.HasPHY = true
	}
	e.probeStep, e.probeTime, e.probeTx = step, now, res.Transmissions
	e.opts.Probe(s)
}

// epochSync installs the topology in force at step when step crosses the
// next epoch boundary, re-syncing the PHY model (geometric models refresh
// their positions here), and reports whether a boundary was crossed — the
// points where the engine captures checkpoints (Options.Checkpoint).
// Between boundaries it is a single comparison, so the per-step delivery
// cost stays amortized; the Topology query, the model re-sync, and any
// allocation inside either happen once per epoch. The step loop calls it at
// the top of the step, before the act phase, so the epoch's first step
// already delivers over the new topology.
func (e *engine) epochSync(step int) bool {
	if e.nextEpoch < 0 || step < e.nextEpoch {
		return false
	}
	csr, next := e.topo.EpochAt(step)
	if csr.N() != len(e.nodes) {
		// The Options.Topology contract fixes the node count for the whole
		// run; a shrinking or growing epoch would corrupt the scratch
		// arrays, so fail loudly rather than deliver garbage.
		panic(fmt.Sprintf("radio: Topology epoch at step %d has %d nodes, run has %d", step, csr.N(), len(e.nodes)))
	}
	e.csr, e.nextEpoch = csr, next
	if err := e.model.Sync(step, e.csr); err != nil {
		// Epoch 0 sync errors surface from Run; a mid-run failure means the
		// Topology/PositionSource contract broke under the engine.
		panic(fmt.Sprintf("radio: %s model rejected the epoch at step %d: %v", e.model.Name(), step, err))
	}
	return true
}

// actScan runs one step's act phase over a compacting active list: dormant
// nodes are kept but skipped, nodes observed awake with Done() true retire
// permanently, and every remaining node is polled, with transmitters
// recorded into the scratch arrays and appended to tx. It returns the
// compacted active list, the extended transmitter list, and the number of
// transmit actions.
func (e *engine) actScan(active []int32, step int, tx []int32) (activeOut, txOut []int32, transmits int) {
	w := 0
	for _, v := range active {
		if !awake(&e.opts, int(v), step) {
			active[w] = v // dormant: stays active, keeps the run alive
			w++
			continue
		}
		if e.nodes[v].Done() {
			continue // retired for the remainder of the run
		}
		active[w] = v
		w++
		a := e.nodes[v].Act(step)
		if a.Transmit {
			e.payload[v] = a.Msg
			tx = append(tx, v)
			transmits++
		}
	}
	return active[:w], tx, transmits
}

// deliverScan hands each live node on the list its received message (or
// silence).
func (e *engine) deliverScan(active []int32, step int) {
	for _, v := range active {
		if awake(&e.opts, int(v), step) {
			e.nodes[v].Deliver(step, e.hear[v])
		}
	}
}

// newActive returns the initial active list 0..n-1. A node leaves the list
// permanently the first time it is observed awake with Done() true; dormant
// nodes (WakeAt in the future) stay on the list — they keep the run alive —
// but are neither polled nor delivered to.
func (e *engine) newActive() []int32 {
	active := make([]int32, len(e.nodes))
	for v := range active {
		active[v] = int32(v)
	}
	return active
}

// resolveDeliveries asks the PHY model to decide reception for the observed
// transmitter set and applies the outcome: hear is filled for decoded
// listeners (and, under a collision-marking model, the Collision marker for
// blocked ones) and the step stats record every reached listener —
// including retired or dormant nodes, which hear nothing but still appear
// in the channel-usage statistics, matching the model's global view of the
// medium.
func (e *engine) resolveDeliveries(st *StepStats) {
	e.out.Reset()
	e.model.Resolve(&e.frontier, &e.out)
	for _, d := range e.out.Decoded {
		e.hear[d.To] = e.payload[d.From]
	}
	st.Deliveries = len(e.out.Decoded)
	st.Collisions = len(e.out.Collided)
	if e.out.Marker {
		for _, v := range e.out.Collided {
			e.hear[v] = Collision
		}
	}
}

// clearTx re-zeroes the per-transmitter scratch for one transmitter list.
func (e *engine) clearTx(tx []int32) {
	for _, v := range tx {
		e.payload[v] = nil
	}
}

// clearDeliveries re-zeroes the hear entries this step's outcome dirtied,
// the model's own scratch, and the frontier, restoring the between-steps
// invariant.
func (e *engine) clearDeliveries() {
	for _, d := range e.out.Decoded {
		e.hear[d.To] = nil
	}
	if e.out.Marker {
		for _, v := range e.out.Collided {
			e.hear[v] = nil
		}
	}
	e.model.Clear()
	e.frontier.Clear()
}

// finishAllDone is the end-of-run sweep when MaxSteps ran out: nodes off the
// active list are done by construction, so only the remainder is polled.
func finishAllDone(nodes []Protocol, active []int32) bool {
	for _, v := range active {
		if !nodes[v].Done() {
			return false
		}
	}
	return true
}
