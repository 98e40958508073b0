package radio

// runSequential is the single-threaded engine, and the one step loop every
// entry point runs: per step it calls the population's act phase, the PHY
// resolve and the population's deliver phase once each. After the engine
// struct is built the loop performs zero heap allocations (regression
// tests assert this): the active list compacts in place, transmitters go
// into a preallocated scratch list, the PHY model's reception pass works
// off its own preallocated scratch, and only entries dirtied this step are
// re-zeroed. Per-step cost is O(#active + #transmitters + the listeners
// they reach) plus whatever the population spends.
func runSequential(n int, pop Population, opts Options) (Result, error) {
	e, err := newEngine(n, pop, opts)
	if err != nil {
		return Result{}, err
	}
	active := e.newActive()
	var res Result
	start := 0
	if cp := opts.Resume; cp != nil {
		if err := e.restore(cp); err != nil {
			return Result{}, err
		}
		active = append(active[:0], cp.Active...)
		res = cp.Partial
		start = cp.Step
	}
	for step := start; step < opts.MaxSteps; step++ {
		st := StepStats{Step: step}
		// Epoch boundary: swap in the topology in force at this step, and
		// capture a checkpoint there when the hook is armed (on a dynamic
		// resume the boundary re-fires at cp.Step, re-syncing the PHY
		// model). The advisory probe samples at the same boundaries, after
		// the capture.
		if e.epochSync(step) {
			if opts.Checkpoint != nil {
				if err := e.boundary(step, active, res); err != nil {
					return Result{}, err
				}
			}
			if opts.Probe != nil {
				e.fireProbe(step, len(active), res, false)
			}
		}
		// Act phase: the population retires its done nodes and names the
		// step's transmitters.
		active, e.txList = pop.Act(step, active, e.txList)
		st.Transmits = len(e.txList)
		if len(active) == 0 {
			res.AllDone = true
			break
		}
		// Delivery: the PHY model decides reception for the transmitter
		// set, and every live node receives its message (or silence).
		e.resolve(&st)
		pop.Deliver(step, active, &e.out)
		e.clearStep()
		res.Steps = step + 1
		res.Transmissions += int64(st.Transmits)
		res.Deliveries += int64(st.Deliveries)
		res.Collisions += int64(st.Collisions)
		if opts.OnStep != nil {
			opts.OnStep(st)
		}
	}
	if !res.AllDone {
		res.AllDone = pop.AllDone(active)
	}
	// Final probe sample: static runs have no boundaries, so this is the
	// one place every probed run is guaranteed a sample.
	if opts.Probe != nil {
		e.fireProbe(res.Steps, len(active), res, true)
	}
	return res, nil
}
