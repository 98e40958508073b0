package gen

// Shared construction of reception models from phy: specs, so the callers
// that execute them — the serve subsystem and radionet-sim — cannot drift
// on what "phy:cd:<class>" or "phy:sinr" means.

import (
	"fmt"

	"repro/internal/dyn"
	"repro/internal/graph"
	"repro/internal/phy"
)

// PhyDeployment builds one static phy: spec replica: the reception model
// plus the abstraction graph the engines derive parameter estimates from —
// the class itself for "phy:cd:<class>", the decode-range connectivity
// view of the drawn deployment for "phy:sinr" (params resolved through
// phy defaults; ignored for cd specs).
func PhyDeployment(spec string, n int, seed uint64, params phy.SINRParams) (*graph.Graph, phy.Model, error) {
	model, _, ok := SplitPhySpec(spec)
	if !ok {
		return nil, nil, fmt.Errorf("gen: %q is not a phy: spec", spec)
	}
	g, pts, err := ByNameWithPoints(spec, n, seed)
	if err != nil {
		return nil, nil, err
	}
	if model == "cd" {
		return g, phy.NewCollisionCD(), nil
	}
	m, err := phy.NewSINR(pts, params)
	if err != nil {
		return nil, nil, err
	}
	if m.Params().DecodeRange() == 1 {
		// The deployment was drawn as a connected unit-range UDG, so g
		// already is the decode-range view (the default params' case).
		return g, m, nil
	}
	return SINRConnectivity(pts, m.Params()), m, nil
}

// SchedulePhyModel builds the reception model for a phy: spec whose run
// follows a schedule (the flood paths): the SINR variant reads per-epoch
// positions from the schedule itself. ok is false — with a nil model, the
// engine default — for non-phy specs, so flood callers can handle every
// spec uniformly.
func SchedulePhyModel(spec string, sched *dyn.Schedule, params phy.SINRParams) (m phy.Model, ok bool, err error) {
	model, _, isPhy := SplitPhySpec(spec)
	if !isPhy {
		return nil, false, nil
	}
	if model == "cd" {
		return phy.NewCollisionCD(), true, nil
	}
	m, err = phy.NewMobileSINR(sched, params)
	return m, true, err
}
