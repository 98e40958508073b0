package radio

import (
	"fmt"
	"time"

	"repro/internal/graph"
	"repro/internal/phy"
)

// engine is the step-loop state of a run: the frozen CSR topology, the
// run's protocol population, the physical-layer reception model, and
// reusable scratch buffers sized once at construction so the per-step loop
// allocates nothing. Under a dynamic topology (Options.Topology) csr is the
// snapshot of the current epoch and epochSync swaps it at epoch boundaries
// (re-syncing the PHY model); the scratch buffers are indexed by node and
// the node count is fixed for the whole run, so they survive every epoch
// unchanged.
//
// Sparse-delivery invariants (DESIGN.md §3): between steps txList/out and
// the frontier are empty, and the model's own scratch is all-zero (the
// phy.Model.Clear contract); the population keeps the same invariant over
// its own scratch. Each step dirties only the entries reachable from this
// step's transmitters and clearStep restores the invariant by re-zeroing
// exactly those, so delivery work is proportional to the transmitters and
// the listeners they reach, never to n.
type engine struct {
	csr       *graph.CSR
	topo      Topology // a static run's is one staticCSR epoch
	nextEpoch int      // step of the next topology change; -1 = static from here
	n         int
	pop       Population
	opts      Options
	model     phy.Model

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

func newEngine(n int, pop Population, opts Options) (*engine, error) {
	e := &engine{
		topo:      opts.Topology,
		nextEpoch: -1,
		n:         n,
		pop:       pop,
		opts:      opts,
		model:     opts.PHY,
		txList:    make([]int32, 0, n),
	}
	e.frontier.Resize(n)
	e.out.Decoded = make([]phy.Decode, 0, n)
	e.out.Collided = make([]int32, 0, n)
	e.csr, e.nextEpoch = e.topo.EpochAt(0)
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
	if csr.N() != e.n {
		// The Options.Topology contract fixes the node count for the whole
		// run; a shrinking or growing epoch would corrupt the scratch
		// arrays, so fail loudly rather than deliver garbage.
		panic(fmt.Sprintf("radio: Topology epoch at step %d has %d nodes, run has %d", step, csr.N(), e.n))
	}
	e.csr, e.nextEpoch = csr, next
	if err := e.model.Sync(step, e.csr); err != nil {
		// Epoch 0 sync errors surface from Run; a mid-run failure means the
		// Topology/PositionSource contract broke under the engine.
		panic(fmt.Sprintf("radio: %s model rejected the epoch at step %d: %v", e.model.Name(), step, err))
	}
	return true
}

// newActive returns the initial active list 0..n-1. A node leaves the list
// permanently the first time the population finds it done; dormant nodes
// (WakeAt in the future) stay on the list — they keep the run alive.
func (e *engine) newActive() []int32 {
	active := make([]int32, e.n)
	for v := range active {
		active[v] = int32(v)
	}
	return active
}

// resolve asks the PHY model to decide reception for the step's
// transmitter set, filling e.out, and records every reached listener in
// the step stats — including retired or dormant nodes, which hear nothing
// but still appear in the channel-usage statistics, matching the model's
// global view of the medium.
func (e *engine) resolve(st *StepStats) {
	e.frontier.Set(e.txList)
	e.out.Reset()
	e.model.Resolve(&e.frontier, &e.out)
	st.Deliveries = len(e.out.Decoded)
	st.Collisions = len(e.out.Collided)
}

// clearStep empties the transmitter list and re-zeroes the model's own
// scratch and the frontier, restoring the between-steps invariant.
func (e *engine) clearStep() {
	e.txList = e.txList[:0]
	e.model.Clear()
	e.frontier.Clear()
}
