package gen

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func TestPathCycleClique(t *testing.T) {
	p := Path(10)
	if p.M() != 9 {
		t.Fatalf("path edges %d", p.M())
	}
	d, err := p.Diameter()
	if err != nil || d != 9 {
		t.Fatalf("path diameter %d err %v", d, err)
	}
	c := Cycle(10)
	if c.M() != 10 {
		t.Fatalf("cycle edges %d", c.M())
	}
	k := Clique(6)
	if k.M() != 15 {
		t.Fatalf("clique edges %d", k.M())
	}
	kd, _ := k.Diameter()
	if kd != 1 {
		t.Fatalf("clique diameter %d", kd)
	}
}

func TestStar(t *testing.T) {
	s := Star(8)
	if s.Degree(0) != 7 || s.M() != 7 {
		t.Fatalf("star degree %d edges %d", s.Degree(0), s.M())
	}
	a, ok := s.IndependenceNumberExact()
	if !ok || a != 7 {
		t.Fatalf("α(star) = %d", a)
	}
}

func TestGrid(t *testing.T) {
	g := Grid(4, 5)
	if g.N() != 20 {
		t.Fatalf("N = %d", g.N())
	}
	// 4*(5-1) horizontal + 5*(4-1) vertical = 16+15 = 31
	if g.M() != 31 {
		t.Fatalf("M = %d, want 31", g.M())
	}
	d, err := g.Diameter()
	if err != nil || d != 3+4 {
		t.Fatalf("grid diameter %d err %v", d, err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRandomTree(t *testing.T) {
	rng := xrand.New(1)
	g := RandomTree(50, rng)
	if g.M() != 49 {
		t.Fatalf("tree edges %d", g.M())
	}
	if !g.Connected() {
		t.Fatal("tree disconnected")
	}
}

func TestGNPEdgeDensity(t *testing.T) {
	rng := xrand.New(2)
	const n, p = 300, 0.05
	g := GNP(n, p, rng)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	want := p * float64(n) * float64(n-1) / 2
	got := float64(g.M())
	if math.Abs(got-want) > 4*math.Sqrt(want) {
		t.Fatalf("G(n,p) edges %v, want ~%v", got, want)
	}
}

func TestGNPExtremes(t *testing.T) {
	rng := xrand.New(3)
	if g := GNP(20, 0, rng); g.M() != 0 {
		t.Fatal("G(n,0) should be empty")
	}
	if g := GNP(10, 1, rng); g.M() != 45 {
		t.Fatalf("G(n,1) edges %d, want 45", g.M())
	}
}

func TestGNPConnected(t *testing.T) {
	rng := xrand.New(4)
	g, err := GNPConnected(100, 0.1, 50, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Connected() {
		t.Fatal("not connected")
	}
	if _, err := GNPConnected(100, 0.0001, 3, rng); err == nil {
		t.Fatal("expected failure for hopeless density")
	}
}

func TestUDGSymmetricAndThreshold(t *testing.T) {
	pts := []Point{{0, 0}, {0.5, 0}, {2, 0}, {2.4, 0}}
	g := UDG(pts, 1)
	if !g.HasEdge(0, 1) || !g.HasEdge(2, 3) {
		t.Fatal("close pairs must connect")
	}
	if g.HasEdge(1, 2) || g.HasEdge(0, 2) {
		t.Fatal("far pairs must not connect")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConnectedUDG(t *testing.T) {
	rng := xrand.New(5)
	g, pts, err := ConnectedUDG(200, 8, 60, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Connected() || len(pts) != 200 {
		t.Fatal("bad connected UDG")
	}
	// Average degree should be within a factor ~2.5 of the target.
	avg := 2 * float64(g.M()) / 200
	if avg < 3 || avg > 21 {
		t.Fatalf("average degree %v far from target 8", avg)
	}
}

func TestQuasiUDGRespectsBounds(t *testing.T) {
	rng := xrand.New(6)
	pts := UniformPoints(150, 2, 6, rng)
	g, err := QuasiUDG(pts, 1, 1.8, 0.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			d := pts[i].Dist(pts[j])
			if d < 1 && !g.HasEdge(i, j) {
				t.Fatalf("pair %d-%d at dist %v < r must be edge", i, j, d)
			}
			if d > 1.8 && g.HasEdge(i, j) {
				t.Fatalf("pair %d-%d at dist %v > R must not be edge", i, j, d)
			}
		}
	}
	if _, err := QuasiUDG(pts, 2, 1, 0.5, rng); err == nil {
		t.Fatal("expected error for R < r")
	}
}

func TestGeometricRadioNetworkMutualEdges(t *testing.T) {
	rng := xrand.New(7)
	pts := UniformPoints(120, 2, 5, rng)
	g, ranges, err := GeometricRadioNetwork(pts, 0.8, 1.6, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranges) != len(pts) {
		t.Fatal("ranges length mismatch")
	}
	for i := range pts {
		if ranges[i] < 0.8 || ranges[i] > 1.6 {
			t.Fatalf("range %v out of bounds", ranges[i])
		}
		for j := i + 1; j < len(pts); j++ {
			d := pts[i].Dist(pts[j])
			mutual := d <= ranges[i] && d <= ranges[j]
			if mutual != g.HasEdge(i, j) {
				t.Fatalf("edge {%d,%d}: mutual=%v edge=%v", i, j, mutual, g.HasEdge(i, j))
			}
		}
	}
	if _, _, err := GeometricRadioNetwork(pts, 0, 1, rng); err == nil {
		t.Fatal("expected error for zero minRange")
	}
}

func TestCliqueChain(t *testing.T) {
	g := CliqueChain(5, 4)
	if g.N() != 20 {
		t.Fatalf("N = %d", g.N())
	}
	if !g.Connected() {
		t.Fatal("chain disconnected")
	}
	a, ok := g.IndependenceNumberExact()
	if !ok || a != 5 {
		t.Fatalf("α(chain of 5 cliques) = %d, want 5", a)
	}
	d, _ := g.Diameter()
	if d < 5 || d > 15 {
		t.Fatalf("diameter %d outside expected band", d)
	}
}

func TestLollipop(t *testing.T) {
	g := Lollipop(6, 10)
	if g.N() != 16 || !g.Connected() {
		t.Fatal("bad lollipop")
	}
	d, _ := g.Diameter()
	if d != 11 {
		t.Fatalf("lollipop diameter %d, want 11", d)
	}
	a, ok := g.IndependenceNumberExact()
	if !ok || a != 6 {
		// clique contributes 1, tail of 10 contributes 5 → 6 total
		t.Fatalf("α(lollipop) = %d, want 6", a)
	}
}

func TestPointDistProperties(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		if math.IsNaN(ax) || math.IsNaN(ay) || math.IsNaN(bx) || math.IsNaN(by) {
			return true
		}
		if math.Abs(ax) > 1e6 || math.Abs(ay) > 1e6 || math.Abs(bx) > 1e6 || math.Abs(by) > 1e6 {
			return true
		}
		p, q := Point{ax, ay}, Point{bx, by}
		return p.Dist(q) == q.Dist(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHypercube(t *testing.T) {
	g := Hypercube(4)
	if g.N() != 16 {
		t.Fatalf("N = %d", g.N())
	}
	// Q_d is d-regular with d·2^(d-1) edges and diameter d.
	if g.M() != 4*8 {
		t.Fatalf("M = %d, want 32", g.M())
	}
	for v := 0; v < 16; v++ {
		if g.Degree(v) != 4 {
			t.Fatalf("degree(%d) = %d", v, g.Degree(v))
		}
	}
	d, err := g.Diameter()
	if err != nil || d != 4 {
		t.Fatalf("diameter %d err %v", d, err)
	}
	a, ok := g.IndependenceNumberExact()
	if !ok || a != 8 {
		t.Fatalf("α(Q_4) = %d, want 8", a)
	}
}

func TestRandomRegular(t *testing.T) {
	rng := xrand.New(10)
	g, err := RandomRegular(40, 4, 200, rng)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) != 4 {
			t.Fatalf("degree(%d) = %d, want 4", v, g.Degree(v))
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Random 4-regular graphs on 40 nodes are connected expanders whp.
	if !g.Connected() {
		t.Fatal("disconnected regular graph (unlikely)")
	}
	d, err := g.Diameter()
	if err != nil {
		t.Fatal(err)
	}
	if d > 8 {
		t.Fatalf("expander diameter %d suspiciously large", d)
	}
}

func TestRandomRegularValidation(t *testing.T) {
	rng := xrand.New(11)
	if _, err := RandomRegular(10, 0, 10, rng); err == nil {
		t.Fatal("want degree error")
	}
	if _, err := RandomRegular(5, 3, 10, rng); err == nil {
		t.Fatal("want parity error")
	}
	if _, err := RandomRegular(4, 4, 10, rng); err == nil {
		t.Fatal("want d<n error")
	}
}

func TestUniformPointsInBounds(t *testing.T) {
	rng := xrand.New(8)
	pts := UniformPoints(100, 3, 4.5, rng)
	for _, p := range pts {
		if len(p) != 3 {
			t.Fatal("wrong dimension")
		}
		for _, c := range p {
			if c < 0 || c >= 4.5 {
				t.Fatalf("coordinate %v out of bounds", c)
			}
		}
	}
}
