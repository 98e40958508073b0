package main

// The two engine workloads. Both run protocol runs one at a time on the
// calling goroutine, each after a GC, following one untimed warm-up run that
// also takes the DESIGN.md §11 footprint reading.

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"time"

	"repro/internal/exp"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mis"
	"repro/internal/phy"
	"repro/internal/radio"
)

// inputRNG derives a workload's inputs from its seed; stream separates the
// workloads so one seed gives each its own inputs.
func inputRNG(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// layerStats accumulates the traced per-run layer readings of an engine
// workload; each is reported as its median over runs.
type layerStats struct {
	build, resolve, sync, setup, loopSelf, steps, nodeStepsPerS, fallbacks []float64
}

func (l *layerStats) report(out *outcome, csrBytesPerNode, runBytesPerNode float64) {
	out.layer["gen.build_ms"] = median(l.build)
	out.layer["graph.csr_bytes_per_node"] = csrBytesPerNode
	out.layer["run.bytes_per_node"] = runBytesPerNode
	out.layer["phy.resolve_ms"] = median(l.resolve)
	out.layer["phy.sync_ms"] = median(l.sync)
	out.layer["phy.fallback_sweeps"] = median(l.fallbacks)
	out.layer["radio.setup_ms"] = median(l.setup)
	out.layer["radio.loop_self_ms"] = median(l.loopSelf)
	out.layer["radio.node_steps_per_s"] = median(l.nodeStepsPerS)
	out.layer["radio.steps"] = median(l.steps)
	out.notes = append(out.notes, fmt.Sprintf("bytes_per_node %.1f B resident at the warm-up run's first step (csr %.1f B)", runBytesPerNode, csrBytesPerNode))
}

// ---- mis_sinr ----

const (
	misN         = 1024
	misInstances = 12 // deployments in the fixed instance set, one run each per round
	misSetups    = 9  // set-ups per run; setup_s is their median
	misFixedSeed = 1  // seed of the fixed instance set and its run seeds
)

// misFault is a deployment and run seed on which Radio MIS under SINR
// returns a set that is not independent (README.md, "Known faults"). It is
// one run of every round, so the run fails in every benchmark run.
var misFault = misRun{instSeed: 1890700816702069259, runSeed: 6643548458091912998}

type misInstance struct {
	csr   *graph.CSR
	pts   []phy.Point
	model *phy.SINR
}

// buildMISInstance is one deployment: the phy:sinr points and connectivity
// CSR, and the SINR reception model over them.
func buildMISInstance(seed uint64) (misInstance, error) {
	csr, pts, err := gen.BuildCSR("phy:sinr", misN, seed)
	if err != nil {
		return misInstance{}, err
	}
	m, err := phy.NewSINR(pts, phy.SINRParams{})
	if err != nil {
		return misInstance{}, err
	}
	return misInstance{csr, pts, m}, nil
}

// misRun is one operation of a round: a deployment seed and a run seed.
type misRun struct {
	instSeed, runSeed uint64
}

// misRound is the fixed round: misInstances-1 runs drawn from
// misFixedSeed, then misFault. It does not depend on the workload seed:
// a deployment's build time depends on how many draws its connectivity
// search takes, so a seed-drawn set made setup_s swing with the seed, and
// misFault must fail in every run for the failed share to stay exact.
func misRound() []misRun {
	rng := inputRNG(misFixedSeed, 1)
	round := make([]misRun, misInstances-1, misInstances)
	for i := range round {
		round[i] = misRun{rng.Uint64(), rng.Uint64()}
	}
	return append(round, misFault)
}

func runMISSINR(cfg config) (*outcome, error) {
	out := newOutcome()
	rng := inputRNG(cfg.seed, 1)
	round := misRound()
	var ls layerStats

	// Footprint and warm-up on a fresh deployment of the first seed: the
	// GC'd live heap at node 0's first Act, less a pre-build baseline
	// (DESIGN.md §11).
	base := liveHeap()
	warm, err := buildMISInstance(round[0].instSeed)
	if err != nil {
		return nil, err
	}
	var resident uint64
	_, err = mis.RunOnEngineN(misN, mis.Params{}, rng.Uint64(), func(f radio.Factory, o radio.Options) (radio.Result, error) {
		o.PHY = warm.model
		return radio.RunCSR(warm.csr, wrapFactory(f, func() { resident = liveHeap() - base }), o)
	})
	if err != nil {
		return nil, fmt.Errorf("mis_sinr warm-up: %w", err)
	}
	warm = misInstance{}

	// Set-up: build the instance set misSetups times, keep the last.
	var insts []misInstance
	var setups []float64
	for s := 0; s < misSetups; s++ {
		insts = insts[:0]
		runtime.GC()
		t0 := time.Now()
		for _, mr := range round {
			b0 := time.Now()
			sp := cfg.tr.start("gen.BuildCSR+phy.NewSINR", nil, 0)
			inst, err := buildMISInstance(mr.instSeed)
			sp.end()
			if err != nil {
				return nil, err
			}
			ls.build = append(ls.build, ms(time.Since(b0)))
			insts = append(insts, inst)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	decode := phy.SINRParams{}.WithDefaults().DecodeRange()

	// The run is a whole number of rounds, each the fixed round in an
	// order drawn from the workload seed.
	var runs, rates []float64 // per run: wall seconds, node-steps per second
	var last time.Duration
	t0 := time.Now()
	id := int64(0)
	for r := 0; r == 0 || fits(t0, cfg.seconds, last); r++ {
		roundStart := time.Now()
		for _, k := range rng.Perm(len(round)) {
			mr, inst := round[k], insts[k]
			id++
			out.attempted++
			model := phy.Model(inst.model)
			tm := &timedModel{Model: inst.model}
			if cfg.tr != nil {
				model = tm
			}
			fb0 := inst.model.Stats().FallbackSweeps
			var entry, first, ret time.Time
			runtime.GC()
			root := cfg.tr.start("mis.RunOnEngineN", nil, id)
			start := time.Now()
			res, err := mis.RunOnEngineN(misN, mis.Params{}, mr.runSeed, func(f radio.Factory, o radio.Options) (radio.Result, error) {
				o.PHY = model
				if cfg.tr != nil {
					f = wrapFactory(f, func() { first = time.Now() })
				}
				entry = time.Now()
				r, err := radio.RunCSR(inst.csr, f, o)
				ret = time.Now()
				return r, err
			})
			d := time.Since(start)
			root.end()
			where := fmt.Sprintf("instance seed %d, run seed %d", mr.instSeed, mr.runSeed)
			if err != nil {
				return nil, fmt.Errorf("mis run (%s): %w", where, err)
			}
			runs = append(runs, d.Seconds())
			rates = append(rates, float64(misN)*float64(res.Steps)/d.Seconds())
			if !res.Completed {
				return nil, fmt.Errorf("mis run (%s): not completed within %d rounds", where, res.Rounds)
			}
			if err := checkMISMaximal(inst.pts, decode, res.MIS); err != nil {
				return nil, fmt.Errorf("mis run (%s): %w", where, err)
			}
			// Under SINR interference two members just inside the decode
			// range can miss each other's announcements (README.md, "Known
			// faults"): such a run is a failed operation.
			if c := misConflicts(inst.pts, decode, res.MIS); len(c) > 0 {
				u, v := c[0][0], c[0][1]
				out.fail(fmt.Sprintf("mis not independent (%s): %d member pairs within decode range %.4f, first %d and %d at %.4f",
					where, len(c), decode, u, v, dist(inst.pts[u], inst.pts[v])))
			}
			if cfg.tr != nil {
				loop := ret.Sub(first)
				cfg.tr.record("radio.setup", root, id, entry, first.Sub(entry), nil)
				cfg.tr.record("phy.Resolve (sum)", root, id, first, tm.resolve, map[string]any{"calls": tm.resolves})
				ls.setup = append(ls.setup, ms(first.Sub(entry)))
				ls.resolve = append(ls.resolve, ms(tm.resolve))
				ls.sync = append(ls.sync, ms(tm.syncTime))
				ls.loopSelf = append(ls.loopSelf, ms(loop-tm.resolve))
				ls.steps = append(ls.steps, float64(res.Steps))
				ls.nodeStepsPerS = append(ls.nodeStepsPerS, float64(misN)*float64(res.Steps)/loop.Seconds())
				ls.fallbacks = append(ls.fallbacks, float64(inst.model.Stats().FallbackSweeps-fb0))
			}
		}
		last = time.Since(roundStart)
	}
	out.e2e["setup_s"] = median(setups)
	out.e2e["op_p50_ms"] = 1e3 * median(runs)
	out.e2e["ops_per_s"] = median(rates)
	ls.report(out, float64(insts[0].csr.MemBytes())/misN, float64(resident)/misN)
	out.notes = append(out.notes,
		fmt.Sprintf("mis_sinr n=%d instances=%d runs=%d run_p50=%.4fs setups=%v", misN, len(insts), len(runs), median(runs), setups))
	addZeroServeLayers(out)
	return out, nil
}

// ---- flood_stream ----

const (
	floodN         = 1 << 16
	floodDeploys   = 6  // deployments in the fixed set
	floodSetups    = 3  // set-ups per run, each building the set; setup_s is their median
	floodSamples   = 16 // nodes per deployment whose adjacency is brute-force checked
	floodFixedSeed = 1  // seed of the fixed deployment set
)

type floodDeploy struct {
	csr *graph.CSR
	pts []phy.Point
	src int // the node nearest the deployment's center
	ecc int // src's eccentricity, by the benchmark's own BFS
}

// centralNode is the point nearest the center of pts' bounding box. Flooding
// from it keeps the source's eccentricity, and so the flood's length, close
// to the deployment's radius whatever the seed.
func centralNode(pts []phy.Point) int {
	x0, y0, x1, y1 := pts[0][0], pts[0][1], pts[0][0], pts[0][1]
	for _, p := range pts {
		x0, y0 = min(x0, p[0]), min(y0, p[1])
		x1, y1 = max(x1, p[0]), max(y1, p[1])
	}
	c := phy.Point{(x0 + x1) / 2, (y0 + y1) / 2}
	best := 0
	for i, p := range pts {
		if dist(p, c) < dist(pts[best], c) {
			best = i
		}
	}
	return best
}

func runFloodStream(cfg config) (*outcome, error) {
	out := newOutcome()
	rng := inputRNG(cfg.seed, 2)
	var ls layerStats
	levels := int(math.Ceil(math.Log2(float64(floodN + 1))))

	// Footprint and warm-up on a deployment of its own, read at the first
	// Resolve, right after the first Acts: RunFloodCSR builds its own
	// factory, so the model is the benchmark's only handle inside the run.
	base := liveHeap()
	csr, _, err := gen.BuildCSR("udg", floodN, rng.Uint64())
	if err != nil {
		return nil, err
	}
	var resident uint64
	wm := &timedModel{Model: phy.NewCollision(), onFirstRes: func() { resident = liveHeap() - base }}
	if _, err := exp.RunFloodCSR(csr, map[int]int64{0: 1}, exp.FloodConfig{Budget: 64, ProbeStep: -1, Seed: rng.Uint64(), PHY: wm}); err != nil {
		return nil, fmt.Errorf("flood warm-up: %w", err)
	}
	csr = nil

	// The deployments are fixed, not drawn from the workload seed: a
	// build's time depends on how many draws its connectivity search
	// takes, so a seed-drawn set made setup_s jump with the seed. The
	// sampled nodes, the flood seeds and the order of the floods are the
	// workload seed's.
	depRNG := inputRNG(floodFixedSeed, 2)
	depSeeds := make([]uint64, floodDeploys)
	for i := range depSeeds {
		depSeeds[i] = depRNG.Uint64()
	}
	// Set-up: build the deployment set floodSetups times, keep the last.
	var setups []float64
	csrs := make([]*graph.CSR, floodDeploys)
	pts := make([][]phy.Point, floodDeploys)
	for s := 0; s < floodSetups; s++ {
		clear(csrs)
		clear(pts)
		var d time.Duration
		for i, seed := range depSeeds {
			runtime.GC()
			sp := cfg.tr.start("gen.BuildCSR", nil, 0)
			t0 := time.Now()
			c, p, err := gen.BuildCSR("udg", floodN, seed)
			b := time.Since(t0)
			sp.end()
			if err != nil {
				return nil, err
			}
			d += b
			ls.build = append(ls.build, ms(b))
			csrs[i], pts[i] = c, p
		}
		setups = append(setups, d.Seconds())
	}
	deps := make([]floodDeploy, floodDeploys)
	for i, c := range csrs {
		if !c.IsPacked() {
			return nil, fmt.Errorf("flood deployment %d: expected a packed CSR at n=%d", i, floodN)
		}
		sample := make([]int, floodSamples)
		for j := range sample {
			sample[j] = rng.IntN(floodN)
		}
		if err := checkAdjacency(pts[i], 1, c.Neighbors, sample); err != nil {
			return nil, fmt.Errorf("flood deployment %d adjacency: %w", i, err)
		}
		src := centralNode(pts[i])
		ecc, err := eccentricity(floodN, c.Neighbors, src)
		if err != nil {
			return nil, fmt.Errorf("flood deployment %d: %w", i, err)
		}
		deps[i] = floodDeploy{c, pts[i], src, ecc}
	}

	var runs, rates []float64 // per flood: wall seconds, node-steps per second
	var last time.Duration
	order := rng.Perm(len(deps))
	t0 := time.Now()
	for i := 0; i == 0 || fits(t0, cfg.seconds, last); i++ {
		dep := deps[order[i%len(deps)]]
		src := dep.src
		seed := rng.Uint64()
		budget := 8 * dep.ecc * levels
		out.attempted++
		tm := &timedModel{Model: phy.NewCollision()}
		var first time.Time
		tm.onFirstRes = func() { first = time.Now() }
		fcfg := exp.FloodConfig{Budget: budget, ProbeStep: -1, Seed: seed}
		if cfg.tr != nil {
			fcfg.PHY = tm
		}
		runtime.GC()
		root := cfg.tr.start("exp.RunFloodCSR", nil, int64(i+1))
		start := time.Now()
		fo, err := exp.RunFloodCSR(dep.csr, map[int]int64{src: 1}, fcfg)
		d := time.Since(start)
		root.end()
		if err != nil {
			return nil, fmt.Errorf("flood run %d: %w", i, err)
		}
		if err := checkFlood(floodN, fo.Complete, fo.InformedEnd, budget, dep.ecc); err != nil {
			return nil, fmt.Errorf("flood run %d (deployment %d, source %d): %w", i, order[i%len(deps)], src, err)
		}
		last = d
		runs = append(runs, d.Seconds())
		rates = append(rates, float64(floodN)*float64(fo.Complete)/d.Seconds())
		if cfg.tr != nil {
			loop := start.Add(d).Sub(first)
			cfg.tr.record("radio.setup", root, int64(i+1), start, first.Sub(start), nil)
			cfg.tr.record("phy.Resolve (sum)", root, int64(i+1), first, tm.resolve, map[string]any{"calls": tm.resolves})
			ls.setup = append(ls.setup, ms(first.Sub(start)))
			ls.resolve = append(ls.resolve, ms(tm.resolve))
			ls.sync = append(ls.sync, ms(tm.syncTime))
			ls.loopSelf = append(ls.loopSelf, ms(loop-tm.resolve))
			ls.steps = append(ls.steps, float64(tm.resolves))
			ls.nodeStepsPerS = append(ls.nodeStepsPerS, float64(floodN)*float64(tm.resolves)/loop.Seconds())
		}
	}
	out.e2e["setup_s"] = median(setups)
	out.e2e["op_p50_ms"] = 1e3 * median(runs)
	out.e2e["ops_per_s"] = median(rates)
	ls.report(out, float64(deps[0].csr.MemBytes())/floodN, float64(resident)/floodN)
	if cfg.tr != nil {
		// Most of radio.setup_ms is the double BFS RunCSR pays when
		// Options.D is unset, which the flood never reads.
		t0 := time.Now()
		if _, err := deps[0].csr.DiameterApprox(); err != nil {
			return nil, err
		}
		out.notes = append(out.notes, fmt.Sprintf("radio double BFS: csr.DiameterApprox %.3f ms of radio.setup_ms %.3f ms", ms(time.Since(t0)), median(ls.setup)))
	}
	out.notes = append(out.notes,
		fmt.Sprintf("flood_stream n=%d deployments=%d runs=%d run_p50=%.4fs setups=%v", floodN, len(deps), len(runs), median(runs), setups))
	addZeroServeLayers(out)
	return out, nil
}
