package phy

import "math"

// Point is a position in d-dimensional Euclidean space. It lives in phy —
// the lowest layer that needs geometry — and gen re-exports it as an alias
// (`gen.Point`), so generators, dynamic schedules and reception models all
// share one point type with no conversions.
type Point []float64

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	var s float64
	for i := range p {
		d := p[i] - q[i]
		s += d * d
	}
	return math.Sqrt(s)
}
