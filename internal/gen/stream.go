package gen

// Direct-to-CSR UDG generation — the one path from a 2-D deployment to its
// adjacency (DESIGN.md §11). udgStreamCSR builds the frozen form straight
// from the grid buckets in one walk: forward neighbors are staged per
// vertex while both endpoints' degrees are counted, the counts become
// offsets, and the staged pairs fill both arcs in ascending order. No
// graph.Builder edge staging, no per-vertex sort of whole lists and no
// graph.Graph intermediate exists; UDG wraps the result with graph.FromCSR.
//
// Equivalence contract (pinned by stream_test.go and
// FuzzStreamCSRVsBuilder against the Builder-backed grid oracle, and by
// udggrid_test.go against the quadratic scan): the result is list-for-list
// the naive scan's. Candidates come from the geoGrid2D buckets and every
// pair is decided once, from its lower endpoint, with Point.Dist's exact
// arithmetic fl(sqrt(fl(fl(dx²)+fl(dy²)))) ≤ radius.

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/xrand"
)

// largeUDGThreshold is where the canonical "udg" deployment switches from
// the historical fixed degree target to the connectivity-scaled one. 4096
// is the historical serve.MaxN: every "udg" scenario reachable before the
// streaming ceiling — service specs, experiments, benches, goldens — sits
// at or below it, so the fixed target is preserved exactly where
// reproductions exist and nowhere a connected deployment can't be drawn
// (at n = 4096 the target 8 already trails ln n ≈ 8.3; a few thousand
// nodes higher, 60 connectivity retries fail essentially always).
const largeUDGThreshold = 4097

// UDGDegTarget returns the expected-degree target for the canonical "udg"
// deployment at n nodes. Random geometric graphs are connected whp only
// when average degree exceeds ln n, so the historical fixed target of 8 —
// kept verbatim below largeUDGThreshold so every existing (name, n, seed)
// scenario reproduces byte-identically — gives way to ln n + 3 above it,
// where degree-8 deployments are disconnected essentially always and the
// old behavior was 60 futile tries followed by an error.
func UDGDegTarget(n int) float64 {
	if n < largeUDGThreshold {
		return 8
	}
	return math.Log(float64(n)) + 3
}

// udgStreamCSR builds the unit disk graph on pts directly in frozen CSR
// form; it is the one grid builder behind UDG and every connected-UDG draw.
// ok is false — callers fall back to the quadratic thresholdGraph — exactly
// when the grid index declines the deployment (non-2-D, non-finite,
// degenerate radius). One walk over the 3×3 cell rings stages each vertex's
// forward neighbors (j > i), sorted, and counts both endpoints' degrees;
// the fill then emits both arcs of every staged pair in ascending i, so
// vertex v receives its backward neighbors (ascending, from earlier i)
// before its own forward run — every list ascending by construction, the
// order the lexicographic quadratic scan gives.
func udgStreamCSR(pts []Point, radius float64) (*graph.CSR, bool) {
	gg, ok := newGeoGrid2D(pts, radius)
	if !ok {
		return nil, false
	}
	n := len(pts)
	xs, ys := gg.xs, gg.ys
	deg := make([]int32, n)
	fwdStart := make([]int32, n+1)
	// Size the forward stage for the uniform density over the grid's area,
	// n²πr²/(2·area) pairs plus 1/16 slack, so the canonical deployments
	// never regrow it; clustered inputs just append past the estimate.
	area := float64(gg.cols) * float64(gg.rows) * gg.cell * gg.cell
	pairs := min(float64(n)*float64(n)*math.Pi*radius*radius/(2*area)*17/16, float64(n)*float64(n-1)/2)
	fwd := make([]int32, 0, int(pairs)+16)
	for i := 0; i < n; i++ {
		xi, yi := xs[i], ys[i]
		run := len(fwd)
		gg.ring(i, func(nodes []int32) {
			for _, j := range nodes {
				if j <= int32(i) {
					continue
				}
				dx := xi - xs[j]
				dy := yi - ys[j]
				if math.Sqrt(dx*dx+dy*dy) <= radius {
					fwd = append(fwd, j)
					deg[j]++
				}
			}
		})
		// Ring cells yield ascending runs, not one ascending list.
		slices.Sort(fwd[run:])
		deg[i] += int32(len(fwd) - run)
		fwdStart[i+1] = int32(len(fwd))
	}
	b := graph.NewCSRBuilder(deg)
	for i := 0; i < n; i++ {
		for _, j := range fwd[fwdStart[i]:fwdStart[i+1]] {
			b.Arc(int32(i), j)
			b.Arc(j, int32(i))
		}
	}
	return b.Finish(), true
}

// BuildCSR is the graph-free counterpart of ByNameWithPoints for the
// streaming-capable classes: for "udg" and "phy:sinr" it draws the same
// deployment ByNameWithPoints would (both call canonicalUDG) but keeps it
// in CSR form, packing the adjacency (graph.CompactThreshold) once n is
// large enough for the edge-storage saving (about 2× at 2¹⁶) to matter.
// Every other spec falls back to ByNameWithPoints + Freeze — correct, just
// not streaming.
func BuildCSR(name string, n int, seed uint64) (*graph.CSR, []Point, error) {
	if n < 1 {
		return nil, nil, fmt.Errorf("gen: need n ≥ 1, got %d", n)
	}
	switch name {
	case "udg", "phy:sinr":
		c, pts, err := canonicalUDG(n, seed)
		if err != nil {
			return nil, nil, err
		}
		if n >= graph.CompactThreshold {
			c = c.Pack()
		}
		return c, pts, nil
	}
	g, pts, err := ByNameWithPoints(name, n, seed)
	if err != nil {
		return nil, nil, err
	}
	return g.Freeze(), pts, nil
}

// canonicalUDG draws the deployment behind the "udg" and "phy:sinr"
// classes: a connected unit-range UDG at degree target UDGDegTarget(n),
// 60 tries, randomness derived from seed.
func canonicalUDG(n int, seed uint64) (*graph.CSR, []Point, error) {
	return connectedUDG(n, UDGDegTarget(n), 60, xrand.New(seed^0x517cc1b727220a95))
}

// connectedUDG is the one draw-until-connected loop behind ConnectedUDG,
// the canonical deployment and MobileUDG's initial placement: up to tries
// uniform draws of n points in a square sized for expected degree
// degTarget, returning the first whose unit disk graph is connected. Each
// try consumes exactly one UniformPoints draw from rng, so a given rng
// state fails or succeeds on the same try whichever caller asks.
func connectedUDG(n int, degTarget float64, tries int, rng *xrand.RNG) (*graph.CSR, []Point, error) {
	// With n points in side², expected neighbors within radius 1 is
	// approximately n·π/side²; choose side to hit degTarget.
	side := math.Sqrt(float64(n) * math.Pi / degTarget)
	for t := 0; t < tries; t++ {
		pts := UniformPoints(n, 2, side, rng)
		c, ok := udgStreamCSR(pts, 1)
		if !ok {
			c = thresholdGraph(pts, 1).Freeze()
		}
		if c.Connected() {
			return c, pts, nil
		}
	}
	return nil, nil, fmt.Errorf("gen: no connected UDG(n=%d, deg=%v) in %d tries", n, degTarget, tries)
}
