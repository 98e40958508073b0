package radio

import "repro/internal/graph"

// runSequential is the single-threaded engine. After the engine struct is
// built, the step loop performs zero heap allocations (a regression test
// asserts this): the active list compacts in place, transmitters go into a
// preallocated scratch list, the PHY model's reception pass works off its
// own preallocated scratch, and only entries dirtied this step are
// re-zeroed. Per-step cost is O(#active + #transmitters + the listeners
// they reach).
func runSequential(g *graph.Graph, nodes []Protocol, opts Options) (Result, error) {
	e, err := newEngine(g, nodes, opts)
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
		// capture a checkpoint there when the hook is armed (on resume the
		// boundary re-fires at cp.Step, re-syncing the PHY model). The
		// advisory probe samples at the same boundaries, after the capture.
		if e.epochSync(step) {
			if opts.Checkpoint != nil || opts.Snapshot != nil {
				if err := e.boundary(step, active, res); err != nil {
					return Result{}, err
				}
			}
			if opts.Probe != nil {
				e.fireProbe(step, len(active), res, false)
			}
		}
		// Act phase: retire done nodes, poll the rest.
		active, e.txList, st.Transmits = e.actScan(active, step, e.txList)
		if len(active) == 0 {
			res.AllDone = true
			break
		}
		// Delivery: the PHY model decides reception for the transmitter set.
		e.frontier.Set(e.txList)
		e.resolveDeliveries(&st)
		// Deliver phase: every live node receives its message (or silence).
		e.deliverScan(active, step)
		e.clearTx(e.txList)
		e.txList = e.txList[:0]
		e.clearDeliveries()
		res.Steps = step + 1
		res.Transmissions += int64(st.Transmits)
		res.Deliveries += int64(st.Deliveries)
		res.Collisions += int64(st.Collisions)
		if opts.OnStep != nil {
			opts.OnStep(st)
		}
	}
	if !res.AllDone {
		res.AllDone = finishAllDone(e.nodes, active)
	}
	// Final probe sample: static runs have no boundaries, so this is the
	// one place every probed run is guaranteed a sample.
	if opts.Probe != nil {
		e.fireProbe(res.Steps, len(active), res, true)
	}
	return res, nil
}
