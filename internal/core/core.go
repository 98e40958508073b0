// Package core implements the paper's primary contribution: the Compete
// procedure (Algorithm 2) with independence-number-parametrized clustering,
// and on top of it Broadcasting (Theorem 7) and Leader Election
// (Algorithm 3 / Theorem 8).
//
// Pipeline, following Algorithm 2:
//
//  1. MIS ← ComputeMIS (Algorithm 7, real radio time-steps via internal/mis).
//  2. Coarse clustering: Partition(β = D^-0.5, MIS).
//  3. Coarse schedules.
//  4. Fine clusterings: Partition(β = 2^-j, MIS) for j in the random-scale
//     window, several independent clusterings per scale.
//  5. Fine schedules.
//  6. A random sequence of fine clusterings (the coarse centers' choice).
//  7. Sequence dissemination within coarse clusters.
//  8. Main loop: Intra-Cluster Propagation(ℓ_j) per chosen clustering
//     (Algorithm 9), time-multiplexed with the background Decay process
//     (Algorithms 8/10), run on the real radio engine with true collision
//     semantics.
//
// Steps 1 and 8 execute on the simulator step-for-step. Steps 2–7 — the
// clustering/schedule constructions the paper inherits from Haeupler–Wajc
// and Ghaffari–Haeupler–Khabbazian as black boxes — are computed
// engine-side and *charged* their documented round costs (DESIGN.md §2,
// substitution 1). Reported results separate real and charged steps.
//
// Setting Params.CenterMode = AllCenters reproduces the CD21 predecessor
// (Partition over all nodes, radii parametrized by log_D n) as the ablation
// baseline; MISCenters is the paper's algorithm.
package core

import (
	"fmt"
	"math"

	"repro/internal/decay"
	"repro/internal/graph"
	"repro/internal/mis"
	"repro/internal/mpx"
	"repro/internal/radio"
	"repro/internal/sched"
	"repro/internal/xrand"
)

// CenterMode selects the candidate-center set for Partition.
type CenterMode int

const (
	// MISCenters is the paper's Partition(β, MIS) (Algorithm 2).
	MISCenters CenterMode = iota + 1
	// AllCenters is CD21's Partition(β) over all nodes — the baseline the
	// paper improves on.
	AllCenters
)

func (m CenterMode) String() string {
	switch m {
	case MISCenters:
		return "mis"
	case AllCenters:
		return "all"
	default:
		return fmt.Sprintf("CenterMode(%d)", int(m))
	}
}

// Params configures Compete. Zero values select documented defaults.
type Params struct {
	// CenterMode selects MISCenters (default) or AllCenters.
	CenterMode CenterMode
	// MIS configures the embedded ComputeMIS run.
	MIS mis.Params
	// FinesPerScale is the number of independent fine clusterings per scale
	// j (the paper's D^0.2, capped for simulation). Default 3.
	FinesPerScale int
	// ICPFactor scales the Intra-Cluster Propagation depth:
	// ℓ_j = ICPFactor·b·2^j for MISCenters (Theorem 2's O(log_D α/β)) and
	// ICPFactor·log_D n·2^j for AllCenters (CD21's Theorem 2.2). Default 2.
	ICPFactor float64
	// BackgroundEvery interleaves one background-process step (Algorithm 8,
	// Decay-style) after every BackgroundEvery foreground steps. Default 4;
	// set negative to disable.
	BackgroundEvery int
	// MaxSteps bounds the main propagation loop. Default
	// 40·(D·b·ICPFactor + log³n) steps, which comfortably covers the
	// Theorem 6 bound on all tested workloads.
	MaxSteps int
	// PartitionChargeC scales the charged cost of one radio Partition(β)
	// construction: PartitionChargeC·⌈log₂n⌉²/β rounds (HW16). Default 2.
	PartitionChargeC int
	// ScheduleChargeC scales the charged cost of computing one clustering's
	// schedules: ScheduleChargeC·⌈log₂n⌉² rounds (GHK15/HW16). Default 2.
	ScheduleChargeC int
	// RealClusterConstruction, when true, builds the fine clusterings with
	// the genuine RadioPartition protocol on the simulator (full fidelity:
	// the construction consumes real time-steps, reported in
	// Result.RealSetupSteps) instead of the engine-computed, cost-charged
	// construction. Slower and noisier; off by default.
	RealClusterConstruction bool
	// WrapFactory, when non-nil, wraps the protocol factories handed to the
	// radio engine for the simulated phases (the ComputeMIS run and the
	// main propagation loop). Test instrumentation — the golden-transcript
	// hashes guarding against silent semantic drift — hooks in here; it
	// must be transparent (forwarding Act/Deliver/Done unchanged).
	WrapFactory func(radio.Factory) radio.Factory
}

// wrap applies WrapFactory, or the identity when unset.
func (p Params) wrap(f radio.Factory) radio.Factory {
	if p.WrapFactory == nil {
		return f
	}
	return p.WrapFactory(f)
}

func (p Params) withDefaults() Params {
	if p.CenterMode == 0 {
		p.CenterMode = MISCenters
	}
	if p.FinesPerScale <= 0 {
		p.FinesPerScale = 3
	}
	if p.ICPFactor <= 0 {
		p.ICPFactor = 2
	}
	if p.BackgroundEvery == 0 {
		p.BackgroundEvery = 4
	}
	if p.PartitionChargeC <= 0 {
		p.PartitionChargeC = 2
	}
	if p.ScheduleChargeC <= 0 {
		p.ScheduleChargeC = 2
	}
	return p
}

// Result reports a Compete/Broadcast/LeaderElection run.
type Result struct {
	// CompleteStep is the main-loop step at which every node knew the
	// highest message (-1 if the budget ran out first).
	CompleteStep int
	// MainSteps is the number of main-loop steps executed.
	MainSteps int
	// MISSteps is the real time-step cost of ComputeMIS.
	MISSteps int
	// ChargedSetupSteps is the charged cost of steps 2–7 (clusterings,
	// schedules, sequence dissemination).
	ChargedSetupSteps int
	// RealSetupSteps is the real time-step cost of RadioPartition-built
	// clusterings (only with Params.RealClusterConstruction).
	RealSetupSteps int
	// TotalSteps = MISSteps + ChargedSetupSteps + CompleteStep (or MainSteps
	// when incomplete) — the quantity Theorems 6–8 bound.
	TotalSteps int
	// MISSize is |MIS| (== n for AllCenters).
	MISSize int
	// NumClusterings is the number of fine clusterings built.
	NumClusterings int
	// MaxDownSlots/MaxUpSlots record schedule widths (O(1) on
	// growth-bounded graphs).
	MaxDownSlots int
	// MaxUpSlots is the upcast analogue of MaxDownSlots.
	MaxUpSlots int
	// B is the paper's b parameter used for ℓ_j.
	B int
	// Winner is the highest message rank (leader ID for elections).
	Winner int64
	// Transmissions counts main-loop transmissions.
	Transmissions int64
}

// stepKind tags entries of the precomputed main-loop program.
type stepKind uint8

const (
	stepDown stepKind = iota + 1
	stepUp
	stepBackground
)

// stepDesc describes one main-loop time-step.
type stepDesc struct {
	kind    stepKind
	cluster uint16 // fine clustering index
	depth   int32  // transmitting layer
	slot    uint16
	bgLevel uint8 // background Decay level i (transmit prob 2^-i)
}

// clustering bundles one fine clustering with its forest and schedule.
type clustering struct {
	assign *mpx.Assignment
	forest *sched.Forest
	sch    *sched.Schedule
	ell    int // ICP truncation depth ℓ_j
}

// Compete runs the main procedure on g. sources maps node → message rank
// (use one entry for broadcast). It returns the Result; the graph must be
// connected.
func Compete(g *graph.Graph, sources map[int]int64, params Params, seed uint64) (*Result, error) {
	params = params.withDefaults()
	n := g.N()
	if n == 0 {
		return nil, fmt.Errorf("core: empty graph")
	}
	if len(sources) == 0 {
		return nil, fmt.Errorf("core: no sources")
	}
	for s := range sources {
		if s < 0 || s >= n {
			return nil, fmt.Errorf("core: source %d out of range", s)
		}
	}
	if !g.Connected() {
		return nil, graph.ErrDisconnected
	}
	diam, err := g.Diameter()
	if err != nil {
		return nil, err
	}
	if diam < 2 {
		diam = 2
	}
	rng := xrand.New(seed ^ 0x9e3779b97f4a7c15)
	res := &Result{CompleteStep: -1}

	// --- Step 1: ComputeMIS (real radio steps) or the AllCenters ablation.
	var centers []int
	switch params.CenterMode {
	case MISCenters:
		out, err := mis.RunOnEngine(g, params.MIS, seed, func(factory radio.Factory, opts radio.Options) (radio.Result, error) {
			return radio.Run(g, params.wrap(factory), opts)
		})
		if err != nil {
			return nil, fmt.Errorf("core: ComputeMIS: %w", err)
		}
		if !out.Completed || len(out.MIS) == 0 {
			return nil, fmt.Errorf("core: ComputeMIS incomplete (rounds=%d)", out.Rounds)
		}
		if err := mis.Verify(g, out.MIS); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		centers = out.MIS
		res.MISSteps = out.Steps
	case AllCenters:
		centers = make([]int, n)
		for i := range centers {
			centers[i] = i
		}
	default:
		return nil, fmt.Errorf("core: unknown center mode %v", params.CenterMode)
	}
	res.MISSize = len(centers)

	// --- b and the ℓ_j scale (Theorem 2 vs CD21 Theorem 2.2).
	alphaEst := len(centers) // |MIS| ≤ α; the paper allows any poly estimate
	if alphaEst < 2 {
		alphaEst = 2
	}
	b, err := mpx.B(diam, alphaEst)
	if err != nil {
		return nil, err
	}
	res.B = b
	radialUnit := float64(b) // MISCenters: ℓ_j ∝ b·2^j = Θ(log_D α)·2^j
	if params.CenterMode == AllCenters {
		logDn := math.Log(float64(n)) / math.Log(float64(diam))
		if logDn < 1 {
			logDn = 1
		}
		radialUnit = 4 * logDn // CD21: ℓ_j ∝ log_D n·2^j
	}

	// --- Steps 2–3: coarse clustering + schedule (charged).
	logN := decay.StepsPerIteration(n)
	coarseBeta := 1 / math.Sqrt(float64(diam))
	res.ChargedSetupSteps += params.PartitionChargeC * logN * logN * int(math.Ceil(1/coarseBeta))
	res.ChargedSetupSteps += params.ScheduleChargeC * logN * logN

	// --- Steps 4–5: fine clusterings + schedules (construction charged,
	// structures computed engine-side).
	jmin, jmax := mpx.JRange(diam)
	var clusterings []clustering
	for j := jmin; j <= jmax; j++ {
		beta := math.Pow(2, -float64(j))
		ell := int(math.Ceil(params.ICPFactor * radialUnit * math.Pow(2, float64(j))))
		if ell < 2 {
			ell = 2
		}
		for k := 0; k < params.FinesPerScale; k++ {
			var a *mpx.Assignment
			if params.RealClusterConstruction {
				ra, steps, err := RadioPartition(g, centers, beta, PartitionParams{}, rng.Uint64())
				if err != nil {
					return nil, err
				}
				a = ra
				res.RealSetupSteps += steps
			} else {
				ca, err := mpx.Partition(g, centers, beta, rng)
				if err != nil {
					return nil, err
				}
				a = ca
				res.ChargedSetupSteps += params.PartitionChargeC * logN * logN * (1 << uint(j))
			}
			f, err := sched.BuildForest(g, a)
			if err != nil {
				return nil, err
			}
			s := sched.ComputeSchedule(g, f)
			clusterings = append(clusterings, clustering{assign: a, forest: f, sch: s, ell: ell})
			if s.DownSlots > res.MaxDownSlots {
				res.MaxDownSlots = s.DownSlots
			}
			if s.UpSlots > res.MaxUpSlots {
				res.MaxUpSlots = s.UpSlots
			}
			res.ChargedSetupSteps += params.ScheduleChargeC * logN * logN
		}
	}
	res.NumClusterings = len(clusterings)

	// --- Steps 6–7: random clustering sequence, disseminated within coarse
	// clusters (charged: coarse radius + sequence length).
	coarseRadius := int(math.Ceil(3 * float64(logN) / coarseBeta))
	res.ChargedSetupSteps += coarseRadius + logN*logN

	// --- Step 8: the main propagation loop on the real radio engine.
	budget := params.MaxSteps
	if budget <= 0 {
		budget = 40 * (diam*int(math.Ceil(radialUnit*params.ICPFactor)) + logN*logN*logN)
	}
	program := buildProgram(clusterings, budget, params, logN, rng)

	target := int64(math.MinInt64)
	for _, rank := range sources {
		if rank > target {
			target = rank
		}
	}
	res.Winner = target

	mainRes, completeStep, err := runMainLoop(g, sources, clusterings, program, target, params, seed)
	if err != nil {
		return nil, err
	}
	res.MainSteps = mainRes.Steps
	res.Transmissions = mainRes.Transmissions
	res.CompleteStep = completeStep
	effective := res.MainSteps
	if completeStep >= 0 {
		effective = completeStep
	}
	res.TotalSteps = res.MISSteps + res.ChargedSetupSteps + res.RealSetupSteps + effective
	return res, nil
}

// buildProgram lays out the main-loop timeline: ICP blocks over randomly
// chosen clusterings (Algorithm 2 step 8) interleaved with background steps.
func buildProgram(clusterings []clustering, budget int, params Params, logN int, rng *xrand.RNG) []stepDesc {
	program := make([]stepDesc, 0, budget)
	bgCounter := 0
	bgLevel := 0
	emit := func(d stepDesc) {
		program = append(program, d)
		bgCounter++
		if params.BackgroundEvery > 0 && bgCounter%params.BackgroundEvery == 0 {
			program = append(program, stepDesc{kind: stepBackground, bgLevel: uint8(bgLevel%logN + 1)})
			bgLevel++
		}
	}
	for len(program) < budget {
		ci := rng.Intn(len(clusterings))
		c := clusterings[ci]
		ell := c.ell
		if ell > c.forest.MaxDepth {
			ell = c.forest.MaxDepth
		}
		// Algorithm 9: downcast, upcast, downcast. Each layer is charged
		// only its own slot count; layers with nothing scheduled are free.
		down := func() {
			for d := 0; d < ell; d++ {
				for s := 0; s < c.sch.DownSlotsAt[d]; s++ {
					emit(stepDesc{kind: stepDown, cluster: uint16(ci), depth: int32(d), slot: uint16(s)})
				}
			}
		}
		down()
		for d := ell; d >= 1; d-- {
			for s := 0; s < c.sch.UpSlotsAt[d]; s++ {
				emit(stepDesc{kind: stepUp, cluster: uint16(ci), depth: int32(d), slot: uint16(s)})
			}
		}
		down()
		if ell == 0 { // degenerate all-singleton clustering: avoid spinning
			emit(stepDesc{kind: stepBackground, bgLevel: 1})
		}
	}
	return program[:budget]
}

// competeNode is the per-node main-loop protocol. Its clustering tables
// (depth/slot per clustering) are the engine-distributed products of steps
// 2–7, whose dissemination cost is charged separately.
type competeNode struct {
	idx      int
	program  []stepDesc
	depths   []int32
	downSlot []int16
	upSlot   []int16
	best     int64
	hasMsg   bool
	rng      *xrand.RNG
	step     int
	stop     *bool
}

var _ radio.Protocol = (*competeNode)(nil)

func (c *competeNode) Act(step int) radio.Action {
	if step >= len(c.program) {
		return radio.Listen()
	}
	d := c.program[step]
	if !c.hasMsg {
		return radio.Listen()
	}
	switch d.kind {
	case stepDown:
		ci := int(d.cluster)
		if c.depths[ci] == d.depth && c.downSlot[ci] == int16(d.slot) {
			return radio.Transmit(c.best)
		}
	case stepUp:
		ci := int(d.cluster)
		if c.depths[ci] == d.depth && c.upSlot[ci] == int16(d.slot) {
			return radio.Transmit(c.best)
		}
	case stepBackground:
		if c.rng.Bernoulli(decay.Pow2Neg(int(d.bgLevel))) {
			return radio.Transmit(c.best)
		}
	}
	return radio.Listen()
}

func (c *competeNode) Deliver(step int, msg radio.Message) {
	c.step = step + 1
	if msg == nil {
		return
	}
	rank, ok := msg.(int64)
	if !ok {
		return
	}
	if !c.hasMsg || rank > c.best {
		c.best = rank
		c.hasMsg = true
	}
}

func (c *competeNode) Done() bool {
	return *c.stop || c.step >= len(c.program)
}

// runMainLoop executes the program on the radio engine and detects the step
// at which all nodes know the target (engine-side measurement oracle).
func runMainLoop(g *graph.Graph, sources map[int]int64, clusterings []clustering, program []stepDesc, target int64, params Params, seed uint64) (radio.Result, int, error) {
	n := g.N()
	nodes := make([]*competeNode, n)
	stop := false
	factory := func(info radio.NodeInfo) radio.Protocol {
		nd := &competeNode{
			idx:      info.Index,
			program:  program,
			depths:   make([]int32, len(clusterings)),
			downSlot: make([]int16, len(clusterings)),
			upSlot:   make([]int16, len(clusterings)),
			rng:      info.RNG,
			stop:     &stop,
		}
		for ci, c := range clusterings {
			nd.depths[ci] = int32(c.forest.Depth[info.Index])
			nd.downSlot[ci] = int16(c.sch.DownSlot[info.Index])
			nd.upSlot[ci] = int16(c.sch.UpSlot[info.Index])
		}
		if rank, ok := sources[info.Index]; ok {
			nd.best = rank
			nd.hasMsg = true
		}
		nodes[info.Index] = nd
		return nd
	}
	completeStep := -1
	opts := radio.Options{
		MaxSteps: len(program),
		Seed:     seed ^ 0x5bf0_3635,
		OnStep: func(st radio.StepStats) {
			if completeStep >= 0 {
				return
			}
			for _, nd := range nodes {
				if !nd.hasMsg || nd.best != target {
					return
				}
			}
			completeStep = st.Step + 1
			stop = true
		},
	}
	res, err := radio.Run(g, params.wrap(factory), opts)
	if err != nil {
		return radio.Result{}, -1, err
	}
	return res, completeStep, nil
}

// Broadcast performs single-source broadcasting (Theorem 7): Compete({s}).
func Broadcast(g *graph.Graph, source int, params Params, seed uint64) (*Result, error) {
	return Compete(g, map[int]int64{source: 1}, params, seed)
}

// ElectionResult extends Result with leader-election specifics (Theorem 8).
type ElectionResult struct {
	Result
	// Candidates is the number of self-nominated candidate leaders.
	Candidates int
	// LeaderID is the agreed winning candidate rank.
	LeaderID int64
	// Retries counts candidate-sampling retries (zero-candidate draws).
	Retries int
}

// LeaderElection runs Algorithm 3: nodes self-nominate with probability
// Θ(log n / n), draw Θ(log n)-bit IDs, and Compete over the candidate set.
func LeaderElection(g *graph.Graph, params Params, seed uint64) (*ElectionResult, error) {
	n := g.N()
	if n == 0 {
		return nil, fmt.Errorf("core: empty graph")
	}
	rng := xrand.New(seed ^ 0xabcdef12345)
	p := 2 * math.Log(float64(n)+1) / float64(n)
	if p > 1 {
		p = 1
	}
	er := &ElectionResult{}
	for retry := 0; ; retry++ {
		sources := map[int]int64{}
		for v := 0; v < n; v++ {
			if rng.Bernoulli(p) {
				// Θ(log n)-bit random IDs are unique whp; rank by ID.
				sources[v] = int64(rng.Uint64() >> 16)
			}
		}
		if len(sources) == 0 {
			if retry > 20 {
				return nil, fmt.Errorf("core: no candidates after %d retries", retry)
			}
			er.Retries++
			continue
		}
		res, err := Compete(g, sources, params, seed+uint64(retry))
		if err != nil {
			return nil, err
		}
		er.Result = *res
		er.Candidates = len(sources)
		er.LeaderID = res.Winner
		return er, nil
	}
}
