// Package radio simulates the ad-hoc radio network model of the paper (§1.1).
//
// Time is divided into synchronous time-steps. In each step every awake node
// either transmits a message or listens. A listening node hears a message iff
// exactly one of its neighbors transmits in that step; with zero or with two
// or more transmitting neighbors it hears nothing, and it cannot distinguish
// the two cases (no collision detection). A transmitting node hears nothing.
//
// The model is ad-hoc: protocol code receives only a linear upper estimate
// of the node count n plus a private randomness source — never the graph,
// its own degree, or its neighbors. All nodes wake up in step 0
// (synchronous wake-up).
//
// The engine is sequential and its step loop performs no heap allocations.
// It drives a run's protocol state as one Population, called once per
// phase per step: per-node Protocol instances from a Factory (Run, RunCSR)
// go through the one Population adapter, and a protocol that keeps its
// state in flat arrays, like the Decay flood, implements Population itself
// and runs through RunPopulation on the same step loop. The engine exploits
// transmission sparsity: per-step delivery cost is O(#transmitters + the
// listeners they can reach), not O(n), and nodes found done are retired
// from a compacting active list and never polled again. Reception
// semantics — who decodes what given the step's transmitter set — are
// owned by a pluggable physical-layer model (internal/phy, Options.PHY):
// the paper's graph collision rule is the zero-overhead default, and the
// same engine runs the collision-detection variant and geometric SINR
// physics. Runs are deterministic: the same inputs and seed give the same
// transcript, which golden digests and dense reference loops in the tests
// pin under every model. Parallelism lives across runs (trials, service
// requests), not inside one; see DESIGN.md §3/§7 for the architecture and
// the determinism contract.
package radio

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/phy"
	"repro/internal/xrand"
)

// Message is an arbitrary protocol payload. Protocols compare messages by
// their own conventions (the paper only requires a consistent total order
// for Compete, which implementations provide themselves).
type Message any

type collisionMarker struct{}

// Collision is the marker delivered to listeners with two or more
// transmitting neighbors under a collision-detection model
// (phy.NewCollisionCD). The paper's algorithms never rely on it (its model
// is without collision detection, §1.1); it exists for the §1.5.2
// comparisons of what CD buys.
var Collision Message = collisionMarker{}

// IsCollision reports whether msg is the collision marker.
func IsCollision(msg Message) bool {
	_, ok := msg.(collisionMarker)
	return ok
}

// Action is a node's choice for one time-step.
type Action struct {
	// Transmit is true to broadcast Msg to all neighbors this step;
	// false to listen.
	Transmit bool
	// Msg is the payload sent when Transmit is true.
	Msg Message
}

// Listen is the listening action.
func Listen() Action { return Action{} }

// Transmit returns a transmitting action carrying msg.
func Transmit(msg Message) Action { return Action{Transmit: true, Msg: msg} }

// Protocol is the per-node state machine interface, run through the
// engine's Factory adapter (the Population every Run and RunCSR uses). For
// every time-step in order the adapter calls Act on every live node, then
// Deliver on every live node (with the received message, or nil when
// nothing was heard — including always for transmitters). A node whose
// Done returns true before a step neither transmits nor receives for the
// remainder of the run; the adapter retires such a node permanently, so
// Done must be monotone (once true, always true) and side-effect free.
// A Population must behave as if its nodes followed this contract.
type Protocol interface {
	Act(step int) Action
	Deliver(step int, msg Message)
	Done() bool
}

// NodeInfo is everything a node may legitimately know at wake-up in the
// ad-hoc model: an upper estimate of the node count and a private RNG. No
// protocol here reads estimates of D or α, so none are handed out; a
// baseline that needs D computes it from the graph before its run.
// Index identifies the node to the engine only; protocols must not treat it
// as a network identity (they draw random IDs instead, §1.1).
type NodeInfo struct {
	Index int
	N     int // linear upper estimate of the node count
	RNG   *xrand.RNG
}

// Factory constructs the protocol instance for one node.
type Factory func(info NodeInfo) Protocol

// StepStats aggregates one step's activity.
type StepStats struct {
	Step       int
	Transmits  int
	Deliveries int
	Collisions int // listeners with ≥2 transmitting neighbors
}

// Options configures a simulation run.
type Options struct {
	// MaxSteps bounds the run; required (>0).
	MaxSteps int
	// Seed seeds the experiment; per-node RNGs are split from it.
	Seed uint64
	// N overrides the node-count estimate given to nodes. Zero is
	// replaced by the true node count (the model allows exact knowledge;
	// protocols must tolerate upper estimates, which tests exercise).
	N int
	// OnStep, when non-nil, observes each step's statistics.
	OnStep func(StepStats)
	// WakeAt, when non-nil (length n), staggers wake-up: node v is dormant
	// — neither acting nor receiving, with its local clock frozen — until
	// step WakeAt[v]. Nil means synchronous wake-up at step 0, the paper's
	// model (§1.1). Experiment E15 uses this to show which guarantees
	// depend on the synchronous-wake-up assumption. A Population that
	// cannot honour it fails the run from Start.
	WakeAt []int
	// Topology, when non-nil, makes the run dynamic: the engine consults it
	// at epoch boundaries (and only there — between boundaries the step
	// loop stays zero-alloc) and delivers over the epoch's frozen topology
	// instead of g's. Every epoch must keep the node count equal to g.N();
	// dynamics are modeled as edges appearing and disappearing over a fixed
	// node set (a churned-out node is one with no incident edges — it keeps
	// acting, but transmits into the void and hears nothing). Protocols are
	// never told about epoch changes: the ad-hoc model's information hiding
	// extends to topology dynamics. The node-count estimate handed to nodes
	// is the fixed node count unless overridden. internal/dyn builds
	// deterministic schedules implementing this interface; see DESIGN.md §5
	// for the epoch semantics and the determinism contract.
	Topology Topology
	// Checkpoint, when non-nil, is the run's one epoch-boundary hook: it
	// receives a resumable engine snapshot at every topology epoch boundary
	// (dynamic runs only — static runs have no boundaries), captured before
	// the boundary step's act phase. A non-nil error aborts the run
	// immediately with that error: a run must not outpace a journal that
	// failed to record it (and the chaos suite injects worker death here).
	// A hook that only observes — publishing into a prefix cache
	// (DESIGN.md §9), where a failed publication costs future resume depth,
	// never correctness — returns nil. The hook owns the *Checkpoint it
	// receives; when it chains several consumers they share that one value
	// and must treat it as immutable. Factory runs require every protocol to
	// implement Snapshotter. Nil — the default — adds zero allocations and
	// one comparison per epoch to the step loop (DESIGN.md §8).
	Checkpoint func(cp *Checkpoint) error
	// Resume, when non-nil, starts the run from the given checkpoint
	// instead of step 0: protocol states are restored, the active list and
	// cumulative counters are reinstated, and the loop continues at
	// Resume.Step. The caller must supply the same graph, factory, seed,
	// topology, and PHY configuration the checkpoint was captured under;
	// the final Result is then byte-identical to the uninterrupted run's.
	Resume *Checkpoint
	// Probe, when non-nil, receives an advisory load sample at every
	// topology epoch boundary (immediately after any Checkpoint capture)
	// and once more after the run's final step. Like Checkpoint it costs
	// the step loop nothing when nil and nothing but the sample fill when
	// set — the engine reuses one ProbeSample, so arming it keeps the
	// zero-alloc step-loop contract (pinned by the alloc regression tests).
	// The sample is valid only for the duration of the call; observers must
	// copy out what they keep. Static runs — a graph, a CSR, or a Topology
	// with a single epoch, resumed or not — have no boundaries and receive
	// only the final sample.
	// Probe is observational: it cannot abort the run and must not touch
	// engine state (DESIGN.md §10).
	Probe func(*ProbeSample)
	// PHY selects the physical-layer reception model (DESIGN.md §7). Nil
	// selects phy.NewCollision(), the paper's graph model (§1.1);
	// phy.NewCollisionCD() is the collision-detection variant of §1.5.2.
	// A Model instance is stateful per run and must not be shared between
	// concurrent runs.
	PHY phy.Model
}

// Topology is the dynamic-topology hook through which internal/dyn's epoch
// schedules — node churn, edge faults, partition/heal, waypoint mobility —
// reach the engine (DESIGN.md §5). Implementations must be pure:
// EpochAt(step) depends on step alone, is safe for concurrent callers, and
// returns the same snapshot every time it is asked about the same step —
// the engine relies on this for run-to-run reproducibility and for
// checkpoint/resume. dyn.Schedule is the canonical implementation.
type Topology interface {
	// EpochAt returns the frozen topology in force at step and the first
	// step strictly after it at which the topology changes again
	// (nextChange < 0 when the topology is static from step on). The
	// engine calls it once per epoch boundary, never per step.
	EpochAt(step int) (csr *graph.CSR, nextChange int)
}

// ProbeSample is the advisory load snapshot delivered to Options.Probe at
// epoch boundaries and once after the final step. Counter fields are
// cumulative over the run; rate fields cover the window since the previous
// sample. The engine reuses one sample across fires — copy out anything
// kept past the callback.
type ProbeSample struct {
	// Step is the boundary step (or, for the final sample, the number of
	// steps executed).
	Step int
	// Final marks the end-of-run sample.
	Final bool
	// Active is the current active-set size (nodes not yet retired).
	Active int
	// WindowSteps is the number of steps since the previous sample.
	WindowSteps int
	// StepsPerSec is the wall-clock step rate over the window (0 when the
	// window is empty or instantaneous).
	StepsPerSec float64
	// AvgFrontier is the mean per-step transmitter-frontier population over
	// the window.
	AvgFrontier float64
	// Transmissions/Deliveries/Collisions mirror Result, cumulative so far.
	Transmissions, Deliveries, Collisions int64
	// PHY carries the reception model's load stats when the model
	// implements phy.StatsSource (HasPHY reports whether it does).
	PHY    phy.Stats
	HasPHY bool
}

// Result summarizes a run.
type Result struct {
	// Steps is the number of time-steps executed.
	Steps int
	// AllDone reports whether every node halted before MaxSteps.
	AllDone bool
	// Transmissions counts transmit actions over the whole run.
	Transmissions int64
	// Deliveries counts successful single-transmitter receptions.
	Deliveries int64
	// Collisions counts listener-steps with ≥2 transmitting neighbors.
	Collisions int64
}

// Run simulates the protocol on g until all nodes are done or MaxSteps is
// reached. It is RunPopulation over the Factory adapter: a static g runs as
// its frozen snapshot, and under Options.Topology g only fixes the node
// count, which epoch 0 must match.
func Run(g *graph.Graph, factory Factory, opts Options) (Result, error) {
	if g == nil {
		return Result{}, fmt.Errorf("radio: nil graph")
	}
	pop := &perNode{factory: factory}
	if opts.Topology == nil {
		return RunPopulation(g.Freeze(), pop, opts)
	}
	if csr, _ := opts.Topology.EpochAt(0); csr != nil && csr.N() != g.N() {
		return Result{}, fmt.Errorf("radio: Topology epoch 0 has %d nodes for %d protocol nodes", csr.N(), g.N())
	}
	return RunPopulation(nil, pop, opts)
}

// RunCSR simulates the protocol directly on a frozen CSR snapshot — the
// graph-free entry point of the million-node path (DESIGN.md §11): the
// streaming generators hand back a *graph.CSR (flat or packed) and the run
// never materializes adjacency-list form. The snapshot is installed as a
// single-epoch static Topology, so Options.Topology must be nil. Semantics,
// determinism, and the zero-alloc step loop are identical to Run on
// FromCSR(csr) — packed snapshots included, which the compact-adjacency
// engine tests pin against golden digests.
func RunCSR(csr *graph.CSR, factory Factory, opts Options) (Result, error) {
	if csr == nil {
		return Result{}, fmt.Errorf("radio: nil topology snapshot")
	}
	return RunPopulation(csr, &perNode{factory: factory}, opts)
}

// staticCSR adapts one frozen snapshot to the Topology interface: a single
// epoch in force from step 0, static forever.
type staticCSR struct{ csr *graph.CSR }

// EpochAt implements Topology.
func (s staticCSR) EpochAt(step int) (*graph.CSR, int) { return s.csr, -1 }

// run validates the options shared by every entry point, starts the
// population and runs the engine over opts.Topology, which every entry
// point has installed (a static snapshot as staticCSR).
func run(n int, pop Population, opts Options) (Result, error) {
	if opts.MaxSteps <= 0 {
		return Result{}, fmt.Errorf("radio: MaxSteps must be positive, got %d", opts.MaxSteps)
	}
	if n == 0 {
		return Result{}, fmt.Errorf("radio: empty graph")
	}
	if err := pop.Start(n, &opts); err != nil {
		return Result{}, err
	}
	if opts.WakeAt != nil && len(opts.WakeAt) != n {
		return Result{}, fmt.Errorf("radio: WakeAt has %d entries for %d nodes", len(opts.WakeAt), n)
	}
	if cp := opts.Resume; cp != nil {
		if cp.Step < 0 || cp.Step >= opts.MaxSteps {
			return Result{}, fmt.Errorf("radio: resume step %d outside [0, MaxSteps=%d)", cp.Step, opts.MaxSteps)
		}
	}
	if opts.PHY == nil {
		opts.PHY = phy.NewCollision()
	}
	return runSequential(n, pop, opts)
}
