// Package gen generates the graph classes studied by the paper (§1.3):
// general graphs (paths, cycles, cliques, stars, grids, random trees, G(n,p))
// and the geometric-derived families — unit disk graphs, quasi unit disk
// graphs and (undirected) geometric radio networks — plus adversarial
// hybrids used for ablations.
//
// All generators are deterministic given an xrand.RNG, and geometric
// generators also return the point set so experiments can inspect geometry.
package gen

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/phy"
	"repro/internal/xrand"
)

// Point is a position in d-dimensional Euclidean space. It is an alias of
// phy.Point — the physical layer owns the geometric primitives — so point
// sets flow between generators, dynamic schedules, and reception models
// without conversion.
type Point = phy.Point

// Path returns the path graph P_n (diameter n-1, α = ⌈n/2⌉).
func Path(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.Add(i, i+1)
	}
	return b.Build()
}

// Cycle returns the cycle C_n.
func Cycle(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.Add(i, i+1)
	}
	if n > 2 {
		b.Add(0, n-1)
	}
	return b.Build()
}

// Clique returns the complete graph K_n (D = 1, α = 1) — the single-hop
// network used in the MIS lower-bound reduction.
func Clique(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.Add(i, j)
		}
	}
	return b.Build()
}

// Star returns K_{1,n-1} with center 0.
func Star(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		b.Add(0, v)
	}
	return b.Build()
}

// Grid returns the rows×cols grid graph — growth-bounded with α(B_d)=Θ(d²).
func Grid(rows, cols int) *graph.Graph {
	b := graph.NewBuilder(rows * cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				b.Add(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				b.Add(id(r, c), id(r+1, c))
			}
		}
	}
	return b.Build()
}

// RandomTree returns a uniform random recursive tree on n vertices.
func RandomTree(n int, rng *xrand.RNG) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		b.Add(v, rng.Intn(v))
	}
	return b.Build()
}

// GNP returns an Erdős–Rényi G(n,p) random graph.
func GNP(n int, p float64, rng *xrand.RNG) *graph.Graph {
	if p >= 1 {
		return Clique(n)
	}
	if p <= 0 {
		return graph.New(n)
	}
	b := graph.NewBuilder(n)
	// Skip-sampling: jump geometric gaps between present edges.
	v, w := 1, -1
	for v < n {
		w += 1 + rng.Geometric(p)
		for w >= v && v < n {
			w -= v
			v++
		}
		if v < n {
			b.Add(v, w)
		}
	}
	return b.Build()
}

// GNPConnected retries G(n,p) until connected (at most tries attempts).
func GNPConnected(n int, p float64, tries int, rng *xrand.RNG) (*graph.Graph, error) {
	for t := 0; t < tries; t++ {
		g := GNP(n, p, rng)
		if g.Connected() {
			return g, nil
		}
	}
	return nil, fmt.Errorf("gen: G(%d,%v) not connected after %d tries", n, p, tries)
}

// UniformPoints draws n points uniformly from [0,side]^dim.
func UniformPoints(n, dim int, side float64, rng *xrand.RNG) []Point {
	pts := make([]Point, n)
	for i := range pts {
		p := make(Point, dim)
		for d := range p {
			p[d] = rng.Float64() * side
		}
		pts[i] = p
	}
	return pts
}

// UDG builds the unit disk graph on pts with connection radius radius:
// an edge {u,v} iff Euclidean distance ≤ radius. Finite 2-D deployments
// go through the one grid walk straight to CSR (udgStreamCSR), expected
// O(n + m) and list-for-list identical to the naive scan; everything else
// (other dimensions, non-finite inputs, degenerate radii) falls back to
// that quadratic scan.
func UDG(pts []Point, radius float64) *graph.Graph {
	if c, ok := udgStreamCSR(pts, radius); ok {
		return graph.FromCSR(c)
	}
	return thresholdGraph(pts, radius)
}

// thresholdGraph is the quadratic reference scan: {i,j} for every pair at
// Euclidean distance ≤ radius, added in lexicographic order.
func thresholdGraph(pts []Point, radius float64) *graph.Graph {
	b := graph.NewBuilder(len(pts))
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			if pts[i].Dist(pts[j]) <= radius {
				b.Add(i, j)
			}
		}
	}
	return b.Build()
}

// QuasiUDG builds a quasi unit disk graph (§1.3): pairs closer than r are
// always connected, pairs farther than R never, and pairs in (r, R] are
// connected independently with probability pMid (decided symmetrically).
func QuasiUDG(pts []Point, r, bigR, pMid float64, rng *xrand.RNG) (*graph.Graph, error) {
	if bigR < r {
		return nil, fmt.Errorf("gen: quasi-UDG needs R >= r, got r=%v R=%v", r, bigR)
	}
	b := graph.NewBuilder(len(pts))
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			d := pts[i].Dist(pts[j])
			switch {
			case d < r:
				b.Add(i, j)
			case d <= bigR && rng.Bernoulli(pMid):
				b.Add(i, j)
			}
		}
	}
	return b.Build(), nil
}

// GeometricRadioNetwork builds the undirected subclass of geometric radio
// networks (§1.3): node v has a range rv drawn uniformly from
// [minRange, maxRange]; the directed edge v→u exists when dist(u,v) ≤ rv,
// and we keep only mutual (undirected) edges, matching the paper's
// restriction to undirected graphs. The bounded ratio maxRange/minRange
// keeps the class growth-bounded.
func GeometricRadioNetwork(pts []Point, minRange, maxRange float64, rng *xrand.RNG) (*graph.Graph, []float64, error) {
	if minRange <= 0 || maxRange < minRange {
		return nil, nil, fmt.Errorf("gen: bad range interval [%v,%v]", minRange, maxRange)
	}
	ranges := make([]float64, len(pts))
	for i := range ranges {
		ranges[i] = minRange + rng.Float64()*(maxRange-minRange)
	}
	b := graph.NewBuilder(len(pts))
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			d := pts[i].Dist(pts[j])
			if d <= ranges[i] && d <= ranges[j] { // mutual reachability only
				b.Add(i, j)
			}
		}
	}
	return b.Build(), ranges, nil
}

// ConnectedUDG generates points until the UDG is connected, scaling the
// deployment area so expected degree stays near degTarget.
func ConnectedUDG(n int, degTarget float64, tries int, rng *xrand.RNG) (*graph.Graph, []Point, error) {
	c, pts, err := connectedUDG(n, degTarget, tries, rng)
	if err != nil {
		return nil, nil, err
	}
	return graph.FromCSR(c), pts, nil
}

// SINRConnectivity returns the zero-interference reachability graph of a
// deployment under uniform-power SINR params: the disk graph at the decode
// range. This is the graph-model counterpart the paper's abstraction uses —
// the reference against which the cross-model experiments judge protocol
// outputs produced under SINR physics, and the parameter-estimate skeleton
// unified SINR runs hand to radio.Run. A noiseless channel (explicit Noise
// 0) has unbounded range, so its connectivity graph is complete.
func SINRConnectivity(pts []Point, params phy.SINRParams) *graph.Graph {
	return UDG(pts, params.WithDefaults().DecodeRange())
}

// CliqueChain returns a path of k cliques of size s joined by single bridge
// edges. Diameter ≈ 3k while α = k, a general-graph workload whose α is
// polynomial in D, used to show the α-parametrization helps beyond
// geometric classes.
func CliqueChain(k, s int) *graph.Graph {
	b := graph.NewBuilder(k * s)
	for c := 0; c < k; c++ {
		base := c * s
		for i := 0; i < s; i++ {
			for j := i + 1; j < s; j++ {
				b.Add(base+i, base+j)
			}
		}
		if c+1 < k {
			b.Add(base+s-1, base+s) // bridge to next clique
		}
	}
	return b.Build()
}

// Lollipop returns a clique of size s with a path of length tail attached:
// small α with large D concentrated in the tail.
func Lollipop(s, tail int) *graph.Graph {
	b := graph.NewBuilder(s + tail)
	for i := 0; i < s; i++ {
		for j := i + 1; j < s; j++ {
			b.Add(i, j)
		}
	}
	prev := s - 1
	for t := 0; t < tail; t++ {
		b.Add(prev, s+t)
		prev = s + t
	}
	return b.Build()
}

// Hypercube returns the d-dimensional hypercube graph Q_d on 2^d vertices
// (diameter d, α = 2^(d-1)) — a classic general-graph topology where α is
// exponential in D, the opposite regime from growth-bounded classes.
func Hypercube(d int) *graph.Graph {
	n := 1 << uint(d)
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		for bit := 0; bit < d; bit++ {
			w := v ^ (1 << uint(bit))
			if w > v {
				b.Add(v, w)
			}
		}
	}
	return b.Build()
}

// RandomRegular returns a random d-regular multigraph-free graph on n
// vertices via repeated pairing with restarts (configuration model with
// rejection). n·d must be even. Random regular graphs are expanders whp:
// tiny D with large α — another general-graph stress case.
func RandomRegular(n, d int, tries int, rng *xrand.RNG) (*graph.Graph, error) {
	if d < 1 || d >= n {
		return nil, fmt.Errorf("gen: need 1 ≤ d < n, got d=%d n=%d", d, n)
	}
	if n*d%2 != 0 {
		return nil, fmt.Errorf("gen: n·d must be even, got %d·%d", n, d)
	}
	for t := 0; t < tries; t++ {
		if g, ok := tryRegular(n, d, rng); ok {
			return g, nil
		}
	}
	return nil, fmt.Errorf("gen: no simple %d-regular graph on %d vertices found in %d tries", d, n, tries)
}

// tryRegular attempts one configuration-model pairing.
func tryRegular(n, d int, rng *xrand.RNG) (*graph.Graph, bool) {
	stubs := make([]int32, 0, n*d)
	for v := 0; v < n; v++ {
		for i := 0; i < d; i++ {
			stubs = append(stubs, int32(v))
		}
	}
	rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	g := graph.New(n)
	for i := 0; i < len(stubs); i += 2 {
		u, v := int(stubs[i]), int(stubs[i+1])
		if u == v || g.HasEdge(u, v) {
			return nil, false // self-loop or multi-edge: reject and retry
		}
		g.AddEdge(u, v)
	}
	return g, true
}
