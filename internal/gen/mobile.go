package gen

import (
	"fmt"
	"math"

	"repro/internal/dyn"
	"repro/internal/graph"
	"repro/internal/xrand"
)

// MobileUDG builds a random-waypoint mobility schedule: n radios with unit
// range are dropped uniformly in a square sized for average degree ~8, and
// between epochs every node moves distance speed (in units of the radio
// range) toward its private waypoint, drawing a fresh uniform waypoint when
// it arrives. Epoch i's topology is the unit-disk graph of the positions at
// time i, and the positions themselves are carried on the schedule
// (dyn.FromGraphsWithPositions / Schedule.PositionsAt), so geometric
// reception models — phy.SINR via phy.NewMobileSINR — follow the motion.
// Because positions matter to those models even when the connectivity graph
// is unchanged, mobile epochs never collapse. The initial placement is
// retried until connected (the usual generator convention); later epochs
// may disconnect and reconnect freely — that is the phenomenon mobility
// experiments measure.
//
// The whole trajectory is a pure function of (n, epochs, speed, rng state),
// keeping the dyn determinism contract.
func MobileUDG(n, epochs, epochLen int, speed float64, rng *xrand.RNG) (*dyn.Schedule, error) {
	if n < 1 || epochs < 0 || epochLen <= 0 {
		return nil, fmt.Errorf("gen: MobileUDG needs n >= 1, epochs >= 0, epochLen > 0 (got %d, %d, %d)", n, epochs, epochLen)
	}
	if speed < 0 {
		return nil, fmt.Errorf("gen: MobileUDG needs speed >= 0, got %g", speed)
	}
	c0, pts, err := connectedUDG(n, 8, 61, rng)
	if err != nil {
		return nil, fmt.Errorf("gen: no connected initial UDG(n=%d) found", n)
	}
	side := math.Sqrt(float64(n) * math.Pi / 8)
	waypoints := UniformPoints(n, 2, side, rng)
	graphs := []*graph.Graph{graph.FromCSR(c0)}
	positions := [][]Point{clonePoints(pts)}
	for e := 1; e <= epochs; e++ {
		for i := range pts {
			pts[i], waypoints[i] = advance(pts[i], waypoints[i], speed, side, rng)
		}
		graphs = append(graphs, UDG(pts, 1))
		positions = append(positions, clonePoints(pts))
	}
	return dyn.FromGraphsWithPositions(epochLen, graphs, positions)
}

// clonePoints deep-copies a point set: the mobility loop mutates pts in
// place, while the schedule needs one immutable snapshot per epoch.
func clonePoints(pts []Point) []Point {
	out := make([]Point, len(pts))
	for i, p := range pts {
		out[i] = append(Point(nil), p...)
	}
	return out
}

// advance moves p distance speed toward its waypoint, redrawing the
// waypoint whenever it is reached within this move.
func advance(p, wp Point, speed, side float64, rng *xrand.RNG) (Point, Point) {
	for speed > 0 {
		d := p.Dist(wp)
		if d > speed {
			frac := speed / d
			for k := range p {
				p[k] += (wp[k] - p[k]) * frac
			}
			break
		}
		p = wp
		speed -= d
		wp = UniformPoints(1, 2, side, rng)[0]
	}
	return p, wp
}
