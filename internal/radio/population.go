package radio

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/phy"
	"repro/internal/xrand"
)

// Population is a run's whole protocol state as the engine drives it: one
// call per phase per step instead of one Protocol call per node. The
// per-node Factory path (Run, RunCSR) is the population adapter over
// Protocol instances; a protocol that keeps its state in flat arrays
// implements Population itself and runs through RunPopulation. Either way
// the engine's step loop, PHY resolve, epoch swaps, checkpoints and probe
// are the same code (DESIGN.md §3).
//
// A population must behave as n independent per-node state machines under
// the Protocol contract: a node's transitions depend only on its own state,
// its private RNG (NodeRNG) and what it hears; transmitters hear nothing;
// a node found done before a step is retired for the rest of the run.
type Population interface {
	// Start sizes the population for n nodes before the run (or before
	// Restore on resume) from opts: the seed, the node-count estimate and
	// the wake-up schedule. An option the population cannot honour —
	// WakeAt, checkpointing — is an error, never silently ignored.
	Start(n int, opts *Options) error
	// Act runs step's act phase over the ascending active list: it drops
	// the nodes that are done (compacting active in place) and appends the
	// step's transmitters, ascending, to tx.
	Act(step int, active, tx []int32) (activeOut, txOut []int32)
	// Deliver applies step's reception outcome to the live nodes on
	// active. out is valid only for the call.
	Deliver(step int, active []int32, out *phy.Outcome)
	// AllDone reports, after the last step, whether every node still on
	// active is done (nodes off the list are done by construction).
	AllDone(active []int32) bool
	// SnapshotNode serializes node v's complete mutable state, its RNG
	// stream included (DESIGN.md §8).
	SnapshotNode(v int) []byte
	// Restore overwrites every node's state with states[v], blobs that
	// SnapshotNode wrote on an identically started population.
	Restore(states [][]byte) error
}

// NodeRNG is node v's private random stream for a run seeded with seed:
// the one split rule shared by the Factory adapter and every Population,
// so a population draws exactly the coins its per-node form would.
func NodeRNG(seed uint64, v int) xrand.RNG {
	return *xrand.New(seed).Split(uint64(v))
}

// RunPopulation runs pop on the engine. csr, when non-nil, is the run's
// static topology (as in RunCSR) and Options.Topology must be nil; a nil
// csr makes Options.Topology the run's topology. Semantics, determinism and
// the zero-alloc step loop are those of Run.
func RunPopulation(csr *graph.CSR, pop Population, opts Options) (Result, error) {
	switch {
	case csr != nil && opts.Topology != nil:
		return Result{}, fmt.Errorf("radio: the snapshot is the run's topology; Options.Topology must be nil")
	case csr != nil:
		opts.Topology = staticCSR{csr}
		return run(csr.N(), pop, opts)
	case opts.Topology != nil:
		csr, _ := opts.Topology.EpochAt(0)
		if csr == nil {
			return Result{}, fmt.Errorf("radio: Topology has no epoch at step 0")
		}
		return run(csr.N(), pop, opts)
	}
	return Result{}, fmt.Errorf("radio: RunPopulation needs a snapshot or Options.Topology")
}

// perNode is the population adapter over per-node Protocol instances built
// by a Factory. It owns the message scratch the engine's sparse-delivery
// invariant covers (DESIGN.md §3): between steps payload[v] and hear[v] are
// nil for every v, and each step dirties and re-zeroes only the entries
// its transmitters and their reached listeners touch.
type perNode struct {
	factory Factory
	nodes   []Protocol
	wakeAt  []int
	payload []Message // payload[v]: message v transmits
	hear    []Message // hear[v]: message v receives (nil = silence)
	tx      []int32   // this step's transmitters, from Act until Deliver
}

// Start implements Population: it builds one Protocol per node with its
// NodeInfo and checks the Snapshotter contract when checkpointing is armed.
func (p *perNode) Start(n int, opts *Options) error {
	estN := opts.N
	if estN <= 0 {
		estN = n
	}
	p.nodes = make([]Protocol, n)
	rngs := make([]xrand.RNG, n)
	for v := range p.nodes {
		rngs[v] = NodeRNG(opts.Seed, v)
		p.nodes[v] = p.factory(NodeInfo{Index: v, N: estN, RNG: &rngs[v]})
		if p.nodes[v] == nil {
			return fmt.Errorf("radio: factory returned nil protocol for node %d", v)
		}
	}
	if opts.Checkpoint != nil || opts.Resume != nil {
		for v, nd := range p.nodes {
			if _, ok := nd.(Snapshotter); !ok {
				return fmt.Errorf("radio: checkpoint/resume requires every protocol to implement Snapshotter; node %d (%T) does not", v, nd)
			}
		}
	}
	p.wakeAt = opts.WakeAt
	p.payload = make([]Message, n)
	p.hear = make([]Message, n)
	return nil
}

// awake reports whether node v participates at the given step.
func (p *perNode) awake(v int32, step int) bool {
	return p.wakeAt == nil || step >= p.wakeAt[v]
}

// Act implements Population over a compacting active list: dormant nodes
// are kept but skipped, nodes observed awake with Done() true retire
// permanently, and every remaining node is polled, with transmitters
// recorded into payload and appended to tx.
func (p *perNode) Act(step int, active, tx []int32) ([]int32, []int32) {
	w := 0
	for _, v := range active {
		if !p.awake(v, step) {
			active[w] = v // dormant: stays active, keeps the run alive
			w++
			continue
		}
		if p.nodes[v].Done() {
			continue // retired for the remainder of the run
		}
		active[w] = v
		w++
		if a := p.nodes[v].Act(step); a.Transmit {
			p.payload[v] = a.Msg
			tx = append(tx, v)
		}
	}
	p.tx = tx
	return active[:w], tx
}

// Deliver implements Population: every awake live node receives its
// message (or silence), then the step's scratch is re-zeroed.
func (p *perNode) Deliver(step int, active []int32, out *phy.Outcome) {
	p.receive(out)
	for _, v := range active {
		if p.awake(v, step) {
			p.nodes[v].Deliver(step, p.hear[v])
		}
	}
	p.clear(out)
}

// receive fills hear from the outcome: the transmitter's payload for each
// decoded listener and, under a collision-marking model, the Collision
// marker for blocked ones. Retired or dormant listeners get entries too but
// are never delivered to.
func (p *perNode) receive(out *phy.Outcome) {
	for _, d := range out.Decoded {
		p.hear[d.To] = p.payload[d.From]
	}
	if out.Marker {
		for _, v := range out.Collided {
			p.hear[v] = Collision
		}
	}
}

// clear re-zeroes the payload and hear entries this step dirtied,
// restoring the between-steps invariant.
func (p *perNode) clear(out *phy.Outcome) {
	for _, v := range p.tx {
		p.payload[v] = nil
	}
	for _, d := range out.Decoded {
		p.hear[d.To] = nil
	}
	if out.Marker {
		for _, v := range out.Collided {
			p.hear[v] = nil
		}
	}
	p.tx = nil
}

// AllDone implements Population.
func (p *perNode) AllDone(active []int32) bool {
	for _, v := range active {
		if !p.nodes[v].Done() {
			return false
		}
	}
	return true
}

// SnapshotNode implements Population through the node's Snapshotter.
func (p *perNode) SnapshotNode(v int) []byte {
	return p.nodes[v].(Snapshotter).SnapshotState()
}

// Restore implements Population through each node's Snapshotter.
func (p *perNode) Restore(states [][]byte) error {
	for v, data := range states {
		if err := p.nodes[v].(Snapshotter).RestoreState(data); err != nil {
			return fmt.Errorf("node %d state: %w", v, err)
		}
	}
	return nil
}
