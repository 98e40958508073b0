// Package mis implements the paper's Radio MIS (Algorithm 7), the first
// maximal-independent-set algorithm for general-graph radio networks,
// running in O(log³ n) time-steps (Theorem 14). Each Ghaffari round is
// simulated with O(log² n) radio time-steps: two amplified Decay blocks
// (marked-neighbor detection and MIS announcement, Claim 10) and one
// EstimateEffectiveDegree block (Algorithm 6, Lemma 11).
//
// The package also exposes per-round state snapshots so experiments can
// count the golden rounds of Lemmas 12–13.
package mis

import (
	"fmt"
	"math"

	"repro/internal/decay"
	"repro/internal/graph"
	"repro/internal/radio"
)

// Params configures Radio MIS. Zero values select defaults suitable for the
// n ≤ ~10⁴ instances the experiments run; the paper's constants are
// recovered by scaling these up.
type Params struct {
	// RoundFactor sets the number of Ghaffari rounds R = RoundFactor·⌈log₂ n⌉
	// (the paper's 13c·log n). Default 8.
	RoundFactor int
	// DecayFactor sets Decay amplification I = DecayFactor·⌈log₂ n⌉
	// iterations per block (the paper's O(log n) iterations). Default 3.
	DecayFactor int
	// DegreeC is the paper's constant C: each EstimateEffectiveDegree
	// sub-block runs C·⌈log₂ n⌉ steps. Default 8.
	DegreeC int
	// HighThresholdDiv is the paper's divisor 33: a block counts as High
	// when it hears at least C·log₂n / HighThresholdDiv transmissions.
	// Default 33.
	HighThresholdDiv float64
	// Observer, when non-nil, is called at the end of every round with the
	// live node states (index-aligned with graph vertices).
	Observer func(round int, states []NodeState)
}

func (p Params) withDefaults() Params {
	if p.RoundFactor <= 0 {
		p.RoundFactor = 8
	}
	if p.DecayFactor <= 0 {
		p.DecayFactor = 3
	}
	if p.DegreeC <= 0 {
		p.DegreeC = 8
	}
	if p.HighThresholdDiv <= 0 {
		p.HighThresholdDiv = 33
	}
	return p
}

// NodeState is a snapshot of one node's Radio MIS state at a round boundary.
type NodeState struct {
	// P is the desire-level p_t(v) entering the next round.
	P float64
	// Alive reports whether the node is still in the residual graph.
	Alive bool
	// InMIS reports final MIS membership so far.
	InMIS bool
	// Dominated reports removal due to a neighbor joining the MIS.
	Dominated bool
	// Marked reports whether the node marked itself in the round that just
	// ended.
	Marked bool
}

// Outcome reports the result of a Radio MIS run.
type Outcome struct {
	// MIS is the set of nodes that joined the MIS, ascending.
	MIS []int
	// Steps is the number of radio time-steps consumed.
	Steps int
	// Rounds is the number of Ghaffari rounds available (R).
	Rounds int
	// JoinRound[v] is the round v joined the MIS, or -1.
	JoinRound []int
	// DominatedRound[v] is the round v was dominated, or -1.
	DominatedRound []int
	// Completed reports whether every node was removed before the round
	// budget (the whp event of Lemma 13).
	Completed bool
	// Transmissions is the total transmission count.
	Transmissions int64
}

// phase identifies the sub-phase of a Ghaffari round.
type phase int

const (
	phaseMark phase = iota + 1
	phaseAnnounce
	phaseDegree
)

// layout precomputes the step layout of one round for a given n estimate.
type layout struct {
	spi          int // steps per decay iteration = ⌈log₂ n⌉
	decayLen     int // length of each decay block
	degBlocks    int // number of EstimateEffectiveDegree sub-blocks (i = 0..log₂n)
	degBlockLen  int // steps per sub-block (C·spi)
	roundLen     int
	highThresh   float64
	announceBase int
	degreeBase   int
}

func newLayout(n int, p Params) layout {
	spi := decay.StepsPerIteration(n)
	decayLen := p.DecayFactor * spi * spi // I iterations × spi steps
	degBlocks := spi + 1
	degBlockLen := p.DegreeC * spi
	l := layout{
		spi:         spi,
		decayLen:    decayLen,
		degBlocks:   degBlocks,
		degBlockLen: degBlockLen,
		highThresh:  float64(p.DegreeC*spi) / p.HighThresholdDiv,
	}
	l.announceBase = l.decayLen
	l.degreeBase = 2 * l.decayLen
	l.roundLen = 2*l.decayLen + degBlocks*degBlockLen
	return l
}

// runConfig is the read-only state every node of a run shares, behind one
// pointer rather than copied into each node.
type runConfig struct {
	params Params
	lay    layout
	rounds int
}

// node is the per-node Radio MIS protocol state machine. It allocates
// nothing after construction: the mark and announcement Decay blocks never
// overlap, so one embedded Phase is re-armed for each, and the degree
// estimate keeps only the current sub-block's count.
type node struct {
	info radio.NodeInfo
	cfg  *runConfig

	p         float64 // desire level p_t(v)
	round     int
	step      int // global step counter (engine steps seen)
	alive     bool
	inMIS     bool
	dominated bool
	finished  bool

	marked         bool
	heardMark      bool
	joinedThisRnd  bool
	heardAnnounce  bool
	high           bool        // some degree sub-block this round reached highThresh
	decay          decay.Phase // the round's mark block, then its announcement block
	degBlock       int         // the degree sub-block degCount counts
	degCount       int         // receptions in degBlock
	joinRound      int
	dominatedRound int
}

var _ radio.Protocol = (*node)(nil)

func newNode(info radio.NodeInfo, cfg *runConfig) *node {
	return &node{
		info:           info,
		cfg:            cfg,
		p:              0.5,
		alive:          true,
		joinRound:      -1,
		dominatedRound: -1,
	}
}

// phaseOf maps a local (within-round) step offset to its phase.
func (nd *node) phaseOf(local int) (phase, int) {
	switch {
	case local < nd.cfg.lay.announceBase:
		return phaseMark, local
	case local < nd.cfg.lay.degreeBase:
		return phaseAnnounce, local - nd.cfg.lay.announceBase
	default:
		return phaseDegree, local - nd.cfg.lay.degreeBase
	}
}

func (nd *node) Act(step int) radio.Action {
	if nd.finished {
		return radio.Listen()
	}
	local := nd.step % nd.cfg.lay.roundLen
	ph, off := nd.phaseOf(local)
	switch ph {
	case phaseMark:
		if off == 0 {
			nd.beginRound()
		}
		return nd.decay.Act(off)
	case phaseAnnounce:
		if off == 0 {
			nd.resolveMark()
		}
		return nd.decay.Act(off)
	case phaseDegree:
		if off == 0 {
			nd.resolveAnnounce()
		}
		if nd.alive {
			block := off / nd.cfg.lay.degBlockLen
			if nd.info.RNG.Bernoulli(nd.p * decay.Pow2Neg(block)) {
				return radio.Transmit(degPing{})
			}
		}
	}
	return radio.Listen()
}

// degPing is the (content-free) payload of degree-estimation transmissions.
type degPing struct{}

// markMsg and announceMsg are the Decay payloads; content is irrelevant to
// the algorithm (presence alone carries the bit).
type (
	markMsg     struct{}
	announceMsg struct{}
)

// beginRound draws the round's mark coin and arms the mark Decay block. A
// removed node only listens (an inactive block draws no coins).
func (nd *node) beginRound() {
	nd.marked = false
	nd.heardMark = false
	nd.joinedThisRnd = false
	nd.heardAnnounce = false
	nd.high, nd.degBlock, nd.degCount = false, 0, 0
	if nd.alive {
		nd.marked = nd.info.RNG.Bernoulli(nd.p)
	}
	nd.armDecay(nd.marked, markMsg{})
}

// armDecay re-arms the embedded Decay block for this round's next block.
func (nd *node) armDecay(active bool, msg radio.Message) {
	nd.decay.Reset(nd.info.N, nd.cfg.params.DecayFactor*nd.cfg.lay.spi, active, msg, nd.info.RNG)
}

// resolveMark decides MIS joining after the mark block and prepares the
// announcement block.
func (nd *node) resolveMark() {
	if nd.alive && nd.marked && !nd.heardMark {
		nd.inMIS = true
		nd.joinedThisRnd = true
		nd.joinRound = nd.round
	}
	nd.armDecay(nd.joinedThisRnd, announceMsg{})
}

// resolveAnnounce removes MIS nodes and their dominated neighbors from the
// residual graph.
func (nd *node) resolveAnnounce() {
	if nd.joinedThisRnd {
		nd.alive = false
	} else if nd.alive && nd.heardAnnounce {
		nd.alive = false
		nd.dominated = true
		nd.dominatedRound = nd.round
	}
}

func (nd *node) Deliver(step int, msg radio.Message) {
	if nd.finished {
		return
	}
	local := nd.step % nd.cfg.lay.roundLen
	ph, off := nd.phaseOf(local)
	switch ph {
	case phaseMark:
		if msg != nil && nd.alive {
			nd.heardMark = true
		}
		nd.decay.Deliver(off, msg)
	case phaseAnnounce:
		if msg != nil && nd.alive && !nd.joinedThisRnd {
			nd.heardAnnounce = true
		}
		nd.decay.Deliver(off, msg)
	case phaseDegree:
		if msg != nil && nd.alive {
			// Sub-blocks run in order, so one counter per round suffices:
			// it restarts when a later sub-block's first reception arrives.
			if block := off / nd.cfg.lay.degBlockLen; block != nd.degBlock {
				nd.degBlock, nd.degCount = block, 0
			}
			nd.degCount++
			if float64(nd.degCount) >= nd.cfg.lay.highThresh {
				nd.high = true
			}
		}
	}
	nd.step++
	if nd.step%nd.cfg.lay.roundLen == 0 {
		nd.endRound()
	}
}

// endRound applies the desire-level update rule from the degree estimate and
// advances the round counter.
func (nd *node) endRound() {
	if nd.alive {
		if nd.high {
			nd.p /= 2
		} else {
			nd.p = math.Min(2*nd.p, 0.5)
		}
	}
	nd.round++
	// Removed nodes (MIS members and dominated nodes) leave the protocol at
	// the end of their removal round — Algorithm 7 removes them from the
	// graph. Alive nodes persist until the round budget runs out.
	if !nd.alive || nd.round >= nd.cfg.rounds {
		nd.finished = true
	}
}

func (nd *node) Done() bool { return nd.finished }

// state snapshots the node for observers.
func (nd *node) state() NodeState {
	return NodeState{
		P:         nd.p,
		Alive:     nd.alive,
		InMIS:     nd.inMIS,
		Dominated: nd.dominated,
		Marked:    nd.marked,
	}
}

// Run executes Radio MIS (Algorithm 7) on g and returns the outcome.
// The graph need not be connected (MIS is a local problem, §1.2).
func Run(g *graph.Graph, params Params, seed uint64) (*Outcome, error) {
	return run(g, params, seed, g.N(), nil)
}

// RunAsync executes Radio MIS under *staggered* wake-up (wakeAt[v] is the
// step node v joins the network). The paper assumes synchronous wake-up
// (§1.1) and Algorithm 7 is NOT correct without it — a node can wake after
// its neighbor joined the MIS and stopped announcing, then join the MIS
// itself. This entry point exists for experiment E15, which quantifies that
// failure mode; production users should call Run.
func RunAsync(g *graph.Graph, params Params, seed uint64, wakeAt []int) (*Outcome, error) {
	return run(g, params, seed, g.N(), wakeAt)
}

// RunDetailed runs Radio MIS with an explicit network-size estimate nEst
// (≥ n, the ad-hoc model's linear upper estimate) and a per-step observer.
// Experiment E16 uses it to realize the single-hop wake-up reduction of
// §1.5.1 / footnote 3: k clique nodes run the algorithm parameterized by a
// much larger n, and the time to the first *clear* transmission (exactly
// one transmitter) lower-bounds any correct MIS algorithm.
func RunDetailed(g *graph.Graph, params Params, seed uint64, nEst int, onStep func(radio.StepStats)) (*Outcome, error) {
	return runEngine(g.N(), params, seed, nEst, nil, func(factory radio.Factory, opts radio.Options) (radio.Result, error) {
		userOnStep := opts.OnStep
		opts.OnStep = func(st radio.StepStats) {
			if onStep != nil {
				onStep(st)
			}
			if userOnStep != nil {
				userOnStep(st)
			}
		}
		return radio.Run(g, factory, opts)
	})
}

// EngineFunc abstracts the reception engine so Radio MIS can be executed
// under alternative physics (e.g. radio.Run with Options.PHY set to a
// phy.SINR or phy.CollisionCD model). The engine must honor MaxSteps,
// Seed, N and OnStep from opts.
type EngineFunc func(factory radio.Factory, opts radio.Options) (radio.Result, error)

// RunOnEngine executes Radio MIS with a custom reception engine. g supplies
// the size estimate and is NOT consulted for delivery — the engine is.
// Used by experiment E13 to run Algorithm 7 under SINR physics.
func RunOnEngine(g *graph.Graph, params Params, seed uint64, engine EngineFunc) (*Outcome, error) {
	return runEngine(g.N(), params, seed, g.N(), nil, engine)
}

// RunOnEngineN is RunOnEngine for graph-free engines (radio.RunCSR and the
// streaming million-node path): the caller supplies the node count directly
// so no graph.Graph intermediate ever needs to exist. Validity of the
// outcome is the caller's to check against whatever adjacency it holds.
func RunOnEngineN(n int, params Params, seed uint64, engine EngineFunc) (*Outcome, error) {
	return runEngine(n, params, seed, n, nil, engine)
}

// runWithEstimate runs Radio MIS with an explicit network-size estimate
// nEst ≥ n, exercising the ad-hoc model's "linear upper estimate" clause.
func runWithEstimate(g *graph.Graph, params Params, seed uint64, nEst int) (*Outcome, error) {
	return run(g, params, seed, nEst, nil)
}

// run is the shared implementation behind Run, RunAsync and runWithEstimate,
// using the standard graph-model engine.
func run(g *graph.Graph, params Params, seed uint64, nEst int, wakeAt []int) (*Outcome, error) {
	return runEngine(g.N(), params, seed, nEst, wakeAt, func(factory radio.Factory, opts radio.Options) (radio.Result, error) {
		return radio.Run(g, factory, opts)
	})
}

// runEngine is the engine-parametric core of Radio MIS.
func runEngine(n int, params Params, seed uint64, nEst int, wakeAt []int, engine EngineFunc) (*Outcome, error) {
	params = params.withDefaults()
	if n == 0 {
		return nil, fmt.Errorf("mis: empty graph")
	}
	if nEst < n {
		nEst = n
	}
	lay := newLayout(nEst, params)
	rounds := params.RoundFactor * decay.StepsPerIteration(nEst)
	cfg := &runConfig{params: params, lay: lay, rounds: rounds}
	nodes := make([]*node, n)
	factory := func(info radio.NodeInfo) radio.Protocol {
		nodes[info.Index] = newNode(info, cfg)
		return nodes[info.Index]
	}
	maxSteps := rounds*lay.roundLen + 1
	if wakeAt != nil {
		maxSteps += maxIntSlice(wakeAt)
	}
	opts := radio.Options{MaxSteps: maxSteps, Seed: seed, N: nEst, WakeAt: wakeAt}
	if params.Observer != nil {
		states := make([]NodeState, n)
		opts.OnStep = func(st radio.StepStats) {
			if (st.Step+1)%lay.roundLen != 0 {
				return
			}
			round := (st.Step + 1) / lay.roundLen
			for v, nd := range nodes {
				states[v] = nd.state()
			}
			params.Observer(round-1, states)
		}
	}
	res, err := engine(factory, opts)
	if err != nil {
		return nil, err
	}
	out := &Outcome{
		Steps:          res.Steps,
		Rounds:         rounds,
		JoinRound:      make([]int, n),
		DominatedRound: make([]int, n),
		Completed:      true,
		Transmissions:  res.Transmissions,
	}
	for v, nd := range nodes {
		out.JoinRound[v] = nd.joinRound
		out.DominatedRound[v] = nd.dominatedRound
		if nd.inMIS {
			out.MIS = append(out.MIS, v)
		}
		if nd.alive {
			out.Completed = false
		}
	}
	return out, nil
}

// EstimateLayout exposes the per-round step layout for a given n and params,
// for experiment bookkeeping (steps per round = O(log² n)).
func EstimateLayout(n int, params Params) (roundLen, rounds int) {
	params = params.withDefaults()
	lay := newLayout(n, params)
	return lay.roundLen, params.RoundFactor * decay.StepsPerIteration(n)
}

// EffectiveDegree computes d_t(v) = Σ_{u∈N(v), alive} p_t(u) from engine-side
// state — used by experiments to classify golden rounds (Lemma 12). Protocol
// code never calls this (it would violate the ad-hoc model).
func EffectiveDegree(g *graph.Graph, states []NodeState, v int) float64 {
	var d float64
	for _, u := range g.Neighbors(v) {
		if states[u].Alive {
			d += states[u].P
		}
	}
	return d
}

// Verify checks the MIS output against the graph: independence and
// maximality (Theorem 14's correctness clause).
func Verify(g *graph.Graph, misSet []int) error {
	if !g.IsIndependentSet(misSet) {
		return fmt.Errorf("mis: output not independent")
	}
	if !g.IsMaximalIndependentSet(misSet) {
		return fmt.Errorf("mis: output not maximal")
	}
	return nil
}

func maxIntSlice(xs []int) int {
	m := 0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
