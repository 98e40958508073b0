package gen

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/xrand"
)

// sameCSR asserts two snapshots are list-for-list identical, with a useful
// failure message (Equal alone says only "differs").
func sameCSR(t *testing.T, got, want *graph.CSR, label string) {
	t.Helper()
	if got.N() != want.N() {
		t.Fatalf("%s: n = %d, want %d", label, got.N(), want.N())
	}
	for v := 0; v < want.N(); v++ {
		g, w := got.Neighbors(v), want.Neighbors(v)
		if len(g) != len(w) {
			t.Fatalf("%s: vertex %d degree %d, want %d (%v vs %v)", label, v, len(g), len(w), g, w)
		}
		for i := range g {
			if g[i] != w[i] {
				t.Fatalf("%s: vertex %d adjacency[%d] = %d, want %d", label, v, i, g[i], w[i])
			}
		}
	}
}

// TestStreamCSRMatchesBuilder pins the tentpole contract: the streaming
// direct-to-CSR build reproduces the Builder path's frozen snapshot
// list-for-list across densities and radii.
func TestStreamCSRMatchesBuilder(t *testing.T) {
	rng := xrand.New(23)
	for _, n := range []int{1, 2, 37, 300, 1500} {
		for _, radius := range []float64{0.3, 1, 2.5} {
			side := math.Sqrt(float64(n+1)) * 1.5
			pts := UniformPoints(n, 2, side, rng)
			c, ok := udgStreamCSR(pts, radius)
			g, gok := udgGrid2D(pts, radius)
			if ok != gok {
				t.Fatalf("n=%d r=%v: stream ok=%v but grid ok=%v (must decline together)", n, radius, ok, gok)
			}
			if !ok {
				continue
			}
			sameCSR(t, c, g.Freeze(), "stream")
		}
	}
}

// TestStreamCSRBoundaryPairs mirrors the grid-path boundary test: exact-
// radius pairs (edges), one-ulp-beyond pairs (non-edges), and co-located
// pairs must come out identically on the streaming path.
func TestStreamCSRBoundaryPairs(t *testing.T) {
	r := 1.0
	pts := []Point{
		{0, 0}, {r, 0},
		{10, 10}, {10, 10 + r},
		{0, 30}, {math.Nextafter(r, 2), 30},
		{5, 5}, {5, 5},
	}
	c, ok := udgStreamCSR(pts, r)
	if !ok {
		t.Fatal("stream path refused a spread-out deployment")
	}
	sameCSR(t, c, thresholdGraph(pts, r).Freeze(), "boundary")
}

// TestStreamCSRDeclines: the streaming path must decline exactly the inputs
// the grid index declines, so UDG's fallback chain stays airtight.
func TestStreamCSRDeclines(t *testing.T) {
	if _, ok := udgStreamCSR(UniformPoints(8, 3, 4, xrand.New(1)), 1); ok {
		t.Fatal("stream path accepted 3-D points")
	}
	if _, ok := udgStreamCSR([]Point{{0, 0}, {math.NaN(), 1}}, 1); ok {
		t.Fatal("stream path accepted NaN coordinates")
	}
	if _, ok := udgStreamCSR([]Point{{0, 0}, {5, 5}}, math.Inf(1)); ok {
		t.Fatal("stream path accepted infinite radius")
	}
}

// TestUDGRoutesThroughStream: the public UDG wrapper goes through the one
// grid walk at every n and must equal the Builder-backed grid oracle (the
// quadratic scan where the oracle declines, as at n ≤ 2), from one vertex
// up to 2¹⁵.
func TestUDGRoutesThroughStream(t *testing.T) {
	for _, n := range []int{1, 2, 600, 1 << 15} {
		if n > 600 && testing.Short() {
			t.Skip("large-n routing check skipped in -short")
		}
		side := math.Sqrt(float64(n) * math.Pi / 8)
		pts := UniformPoints(n, 2, side, xrand.New(5))
		want, ok := udgGrid2D(pts, 1)
		if !ok {
			want = thresholdGraph(pts, 1)
		}
		sameAdjacency(t, UDG(pts, 1), want, fmt.Sprintf("n=%d", n))
	}
}

// TestConnectedUDGFailureText pins the error a disconnected canonical draw
// returns: the service maps it to a 500 whose body the end-to-end
// benchmark recognises by "no connected UDG", so one shared draw loop must
// keep the same try count and words for every caller.
func TestConnectedUDGFailureText(t *testing.T) {
	const want = "gen: no connected UDG(n=4096, deg=8) in 60 tries"
	for _, name := range []string{"udg", "phy:sinr"} {
		if _, err := ByName(name, 4096, 2); err == nil || err.Error() != want {
			t.Fatalf("ByName(%q, 4096, 2) error = %v, want %q", name, err, want)
		}
	}
	if _, _, err := BuildCSR("udg", 4096, 2); err == nil || err.Error() != want {
		t.Fatalf("BuildCSR error = %v, want %q", err, want)
	}
	const wantMobile = "gen: no connected initial UDG(n=4096) found"
	if _, err := ScheduleByName("mobile:udg", 4096, 0, 1, 0, 2); err == nil || err.Error() != wantMobile {
		t.Fatalf("mobile:udg error = %v, want %q", err, wantMobile)
	}
}

// TestConnectedUDGDrawCount: each try of the draw loop consumes exactly one
// UniformPoints draw, so a failed loop leaves the RNG where that many draws
// leave it and a given seed fails or succeeds on the same try as before.
func TestConnectedUDGDrawCount(t *testing.T) {
	const n, tries = 50, 7
	rng, ref := xrand.New(3), xrand.New(3)
	if _, _, err := connectedUDG(n, 0.01, tries, rng); err == nil {
		t.Fatal("a degree-0.01 deployment came out connected")
	}
	side := math.Sqrt(n * math.Pi / 0.01)
	for range tries {
		UniformPoints(n, 2, side, ref)
	}
	if rng.Uint64() != ref.Uint64() {
		t.Fatalf("%d failed tries consumed a different amount of randomness than %d draws", tries, tries)
	}
}

// TestBuildCSRMatchesByName pins BuildCSR's promise: for the streaming-
// capable classes it draws the same deployment and builds the same graph as
// ByNameWithPoints — same seed derivation, same retry discipline — and for
// every other spec it is exactly ByNameWithPoints + Freeze.
func TestBuildCSRMatchesByName(t *testing.T) {
	for _, name := range []string{"udg", "phy:sinr", "grid", "tree"} {
		c, cpts, err := BuildCSR(name, 600, 42)
		if err != nil {
			t.Fatalf("BuildCSR(%q): %v", name, err)
		}
		g, gpts, err := ByNameWithPoints(name, 600, 42)
		if err != nil {
			t.Fatalf("ByNameWithPoints(%q): %v", name, err)
		}
		sameCSR(t, c.Unpack(), g.Freeze(), name)
		if (cpts == nil) != (gpts == nil) || len(cpts) != len(gpts) {
			t.Fatalf("%q: points mismatch (%d vs %d)", name, len(cpts), len(gpts))
		}
		for i := range cpts {
			for d := range cpts[i] {
				if cpts[i][d] != gpts[i][d] {
					t.Fatalf("%q: point %d differs", name, i)
				}
			}
		}
	}
	if _, _, err := BuildCSR("udg", 0, 1); err == nil {
		t.Fatal("BuildCSR accepted n=0")
	}
	if _, _, err := BuildCSR("nosuch", 10, 1); err == nil {
		t.Fatal("BuildCSR accepted an unknown class")
	}
}

// TestBuildCSRPacksLargeN: at n ≥ graph.CompactThreshold the streaming
// entry point hands back packed adjacency; below, flat.
func TestBuildCSRPacksLargeN(t *testing.T) {
	c, _, err := BuildCSR("udg", 512, 9)
	if err != nil {
		t.Fatal(err)
	}
	if c.IsPacked() {
		t.Fatal("small-n BuildCSR returned packed adjacency")
	}
	if testing.Short() {
		t.Skip("compact-threshold build skipped in -short")
	}
	big, _, err := BuildCSR("udg", graph.CompactThreshold, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !big.IsPacked() {
		t.Fatal("large-n BuildCSR returned flat adjacency")
	}
	if !big.Connected() {
		t.Fatal("BuildCSR returned a disconnected deployment")
	}
}

// FuzzStreamCSRVsBuilder fuzzes the tentpole equivalence on random 2-D
// deployments: bytes decode pairwise into coordinates on a [0, 16]² box
// (coarse lattice positions, so exact-boundary and co-located pairs occur
// constantly), plus one byte choosing the radius. The streamed CSR must
// have identical offsets and edges to the Builder path's frozen form, and
// both paths must accept/decline together.
func FuzzStreamCSRVsBuilder(f *testing.F) {
	f.Add([]byte{8, 0, 0, 16, 0, 0, 16, 16, 16, 200, 200})
	f.Add([]byte{3, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		radius := 0.25 + float64(data[0]%32)/8
		stream := data[1:]
		var pts []Point
		for i := 0; i+1 < len(stream) && len(pts) < 160; i += 2 {
			pts = append(pts, Point{float64(stream[i]) / 16, float64(stream[i+1]) / 16})
		}
		c, ok := udgStreamCSR(pts, radius)
		g, gok := udgGrid2D(pts, radius)
		if ok != gok {
			t.Fatalf("stream ok=%v, grid ok=%v", ok, gok)
		}
		if !ok {
			return
		}
		want := g.Freeze()
		if !c.Equal(want) {
			for v := 0; v < want.N(); v++ {
				cn, wn := c.Neighbors(v), want.Neighbors(v)
				if len(cn) != len(wn) {
					t.Fatalf("vertex %d: stream degree %d, builder %d", v, len(cn), len(wn))
				}
				for i := range cn {
					if cn[i] != wn[i] {
						t.Fatalf("vertex %d pos %d: stream %d, builder %d", v, i, cn[i], wn[i])
					}
				}
			}
			t.Fatal("Equal=false but lists match (offsets disagree?)")
		}
	})
}

// BenchmarkUDGBuild times the one UDG builder from points to CSR on the
// canonical deployment density (UDGDegTarget); 65536 is the perfbench
// flood size:
//
//	go test -run xxx -bench UDGBuild -benchmem ./internal/gen
func BenchmarkUDGBuild(b *testing.B) {
	for _, n := range []int{1024, 4096, 65536} {
		side := math.Sqrt(float64(n) * math.Pi / UDGDegTarget(n))
		pts := UniformPoints(n, 2, side, xrand.New(1))
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, ok := udgStreamCSR(pts, 1); !ok {
					b.Fatal("grid declined the deployment")
				}
			}
		})
	}
}
