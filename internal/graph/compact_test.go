package graph

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// randomGraph builds a Builder graph on n vertices with roughly m edge
// attempts (duplicates dropped), deterministic in seed.
func randomGraph(n, m int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n)
	for i := 0; i < m; i++ {
		b.Add(rng.Intn(n), rng.Intn(n))
	}
	return b.Build()
}

func TestPackUnpackRoundTrip(t *testing.T) {
	for _, tc := range []struct{ n, m int }{
		{0, 0}, {1, 0}, {2, 1}, {8, 0}, {16, 40}, {200, 800}, {500, 4000},
	} {
		g := randomGraph(tc.n, tc.m, int64(tc.n*1000+tc.m))
		flat := g.Freeze()
		packed := flat.Pack()
		if tc.n > 0 && flat.M() > 0 && !packed.IsPacked() {
			t.Fatalf("n=%d m=%d: Pack returned flat form", tc.n, tc.m)
		}
		if !flat.Equal(packed) || !packed.Equal(flat) {
			t.Fatalf("n=%d m=%d: packed form not Equal to flat", tc.n, tc.m)
		}
		back := packed.Unpack()
		if back.IsPacked() {
			t.Fatalf("Unpack returned packed form")
		}
		if !flat.Equal(back) {
			t.Fatalf("n=%d m=%d: unpack(pack(c)) differs from c", tc.n, tc.m)
		}
		if packed.N() != flat.N() || packed.M() != flat.M() {
			t.Fatalf("n/m mismatch: packed (%d,%d), flat (%d,%d)",
				packed.N(), packed.M(), flat.N(), flat.M())
		}
		for v := 0; v < tc.n; v++ {
			if packed.Degree(v) != flat.Degree(v) {
				t.Fatalf("vertex %d: degree %d vs %d", v, packed.Degree(v), flat.Degree(v))
			}
		}
	}
}

func TestPackPreservesNonAscendingOrder(t *testing.T) {
	// AddEdge insertion order — lists here are NOT ascending, so the deltas
	// include negatives. Pack must preserve exact order (transcript contract).
	g := New(5)
	g.AddEdge(0, 4)
	g.AddEdge(0, 1)
	g.AddEdge(0, 3)
	g.AddEdge(2, 4)
	g.AddEdge(2, 0)
	flat := g.Freeze()
	packed := flat.Pack()
	for v := 0; v < 5; v++ {
		fn, pn := flat.Neighbors(v), packed.Neighbors(v)
		if len(fn) != len(pn) {
			t.Fatalf("vertex %d: degree %d vs %d", v, len(fn), len(pn))
		}
		for i := range fn {
			if fn[i] != pn[i] {
				t.Fatalf("vertex %d pos %d: flat %d, packed %d (order lost)", v, i, fn[i], pn[i])
			}
		}
	}
}

func TestPackIdempotent(t *testing.T) {
	c := randomGraph(50, 200, 7).Freeze().Pack()
	if c.Pack() != c {
		t.Fatalf("Pack on a packed snapshot should return it unchanged")
	}
	f := c.Unpack()
	if f.Unpack() != f {
		t.Fatalf("Unpack on a flat snapshot should return it unchanged")
	}
}

func TestCursorMatchesNeighborsBothForms(t *testing.T) {
	g := randomGraph(120, 600, 11)
	flat := g.Freeze()
	packed := flat.Pack()
	for _, c := range []*CSR{flat, packed} {
		cur := c.Cursor()
		for v := 0; v < c.N(); v++ {
			want := flat.Neighbors(v)
			got := cur.List(v)
			if len(got) != len(want) {
				t.Fatalf("packed=%v vertex %d: len %d vs %d", c.IsPacked(), v, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("packed=%v vertex %d pos %d: %d vs %d", c.IsPacked(), v, i, got[i], want[i])
				}
			}
		}
	}
}

func TestCursorScratchReuse(t *testing.T) {
	// List on a packed cursor must reuse the one scratch buffer, not allocate.
	packed := randomGraph(64, 256, 3).Freeze().Pack()
	cur := packed.Cursor()
	allocs := testing.AllocsPerRun(100, func() {
		for v := 0; v < packed.N(); v++ {
			cur.List(v)
		}
	})
	if allocs != 0 {
		t.Fatalf("packed cursor List allocates: %v allocs per full sweep", allocs)
	}
}

func TestCSRMaxDegree(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(0, 3)
	if d := g.Freeze().MaxDegree(); d != 3 {
		t.Fatalf("MaxDegree = %d, want 3", d)
	}
	if d := New(0).Freeze().MaxDegree(); d != 0 {
		t.Fatalf("empty MaxDegree = %d, want 0", d)
	}
}

func TestMemBytesPackedSmaller(t *testing.T) {
	// Geometric-style ascending lists with clustered ids: packed must be
	// strictly smaller than flat (that's the point of the format).
	b := NewBuilder(2000)
	for v := 0; v < 2000; v++ {
		for d := 1; d <= 6; d++ {
			b.Add(v, (v+d)%2000)
		}
	}
	flat := b.Build().Freeze()
	packed := flat.Pack()
	if packed.MemBytes() >= flat.MemBytes() {
		t.Fatalf("packed %d bytes >= flat %d bytes", packed.MemBytes(), flat.MemBytes())
	}
}

func TestEqualDetectsDifferencesAcrossForms(t *testing.T) {
	a := randomGraph(40, 160, 21).Freeze()
	c := a.Graph()
	c.AddEdge(0, 39)
	c.AddEdge(0, 38) // ensure at least one differs even if 0-39 existed
	d := c.Freeze()
	if a.Equal(d.Pack()) || d.Pack().Equal(a) {
		t.Fatalf("Equal missed an edge difference across forms")
	}
}

func TestFromCSRBothForms(t *testing.T) {
	orig := randomGraph(80, 320, 5)
	flat := orig.Freeze()
	for _, c := range []*CSR{flat, flat.Pack()} {
		g := FromCSR(c)
		if g.N() != orig.N() || g.M() != orig.M() {
			t.Fatalf("packed=%v: N/M (%d,%d) vs (%d,%d)", c.IsPacked(), g.N(), g.M(), orig.N(), orig.M())
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("packed=%v: FromCSR graph invalid: %v", c.IsPacked(), err)
		}
		for v := 0; v < g.N(); v++ {
			on, gn := orig.Neighbors(v), g.Neighbors(v)
			if len(on) != len(gn) {
				t.Fatalf("packed=%v vertex %d: degree %d vs %d", c.IsPacked(), v, len(gn), len(on))
			}
			for i := range on {
				if on[i] != gn[i] {
					t.Fatalf("packed=%v vertex %d pos %d: %d vs %d", c.IsPacked(), v, i, gn[i], on[i])
				}
			}
		}
		// Mutating the materialized graph must not corrupt the snapshot.
		before := c.Unpack().Neighbors(0)
		beforeCopy := append([]int32(nil), before...)
		g.AddEdge(0, g.N()-1)
		g.AddEdge(0, g.N()-2)
		after := c.Unpack().Neighbors(0)
		if len(after) != len(beforeCopy) {
			t.Fatalf("packed=%v: snapshot list length changed after AddEdge on FromCSR graph", c.IsPacked())
		}
		for i := range beforeCopy {
			if after[i] != beforeCopy[i] {
				t.Fatalf("packed=%v: snapshot corrupted by AddEdge on FromCSR graph", c.IsPacked())
			}
		}
	}
}

func TestCSRTraversalsMatchGraph(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := randomGraph(60, 150, 100+seed)
		flat := g.Freeze()
		for _, c := range []*CSR{flat, flat.Pack()} {
			for _, srcs := range [][]int{{0}, {3, 17, 59}, {}, {-1, 60, 5}} {
				want := g.MultiBFS(srcs)
				got := c.MultiBFS(srcs)
				for v := range want {
					if got[v] != want[v] {
						t.Fatalf("seed %d packed=%v srcs=%v vertex %d: CSR dist %d, Graph dist %d",
							seed, c.IsPacked(), srcs, v, got[v], want[v])
					}
				}
			}
			if c.Connected() != g.Connected() {
				t.Fatalf("seed %d packed=%v: Connected mismatch", seed, c.IsPacked())
			}
			gd, gerr := g.DiameterApprox()
			cd, cerr := c.DiameterApprox()
			if (gerr == nil) != (cerr == nil) || (gerr == nil && gd != cd) {
				t.Fatalf("seed %d packed=%v: DiameterApprox (%d,%v) vs Graph (%d,%v)",
					seed, c.IsPacked(), cd, cerr, gd, gerr)
			}
		}
	}
}

func TestCSRBuilderMatchesBuilder(t *testing.T) {
	// Emit the same UDG-style edge set through both construction paths:
	// Builder (lexicographic Add order → ascending lists) and CSRBuilder
	// (count pass, then both arcs of every pair in ascending u, the UDG
	// generator's fill order). Lists must be identical.
	rng := rand.New(rand.NewSource(99))
	n := 300
	type edge struct{ u, v int32 }
	var edges []edge
	for u := 0; u < n; u++ {
		for d := 1; d <= 4; d++ {
			if v := u + d*7; v < n && rng.Intn(2) == 0 {
				edges = append(edges, edge{int32(u), int32(v)})
			}
		}
	}
	b := NewBuilder(n)
	for _, e := range edges {
		b.Add(int(e.u), int(e.v))
	}
	want := b.Build().Freeze()

	deg := make([]int32, n)
	for _, e := range edges {
		deg[e.u]++
		deg[e.v]++
	}
	cb := NewCSRBuilder(deg)
	for _, e := range edges {
		cb.Arc(e.u, e.v)
		cb.Arc(e.v, e.u)
	}
	got := cb.Finish()
	if !got.Equal(want) {
		t.Fatalf("CSRBuilder snapshot differs from Builder snapshot")
	}
}

// FuzzPackRoundTrip fuzzes the compact-adjacency claim: for any list set,
// pack → unpack reproduces the flat snapshot exactly, the packed form
// answers Neighbors/Cursor identically to flat, and the blob is its blocks
// plus exactly blockSlack zero bytes. A first byte below 0x80 builds a
// graph from a byte-stream of edges replayed through AddEdge (insertion
// order, so deltas of both signs); a first byte at or above it writes raw
// lists of arbitrary 32-bit ids (fuzzRawCSR), which reach what no small
// graph can: duplicate ids (width 0) and ids near ±2³¹, whose zigzag
// deltas take 33 bits. The two f.Add seeds are small AddEdge graphs; the
// seed corpus under testdata/fuzz/FuzzPackRoundTrip pins those corners. All
// run as ordinary test cases in `go test`.
func FuzzPackRoundTrip(f *testing.F) {
	f.Add([]byte{5, 0, 1, 1, 2, 0, 4, 3, 2})
	f.Add([]byte{32, 31, 0, 0, 31, 15, 16})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		var flat *CSR
		if data[0] < 0x80 {
			n := int(data[0]) % 48
			g := New(n)
			stream := data[1:]
			for i := 0; i+1 < len(stream); i += 2 {
				g.AddEdge(int(stream[i])%(n+1), int(stream[i+1])%(n+1))
			}
			flat = g.Freeze()
		} else {
			flat = fuzzRawCSR(data[1:], int(data[0]&0x7f)%9)
		}
		packed := flat.Pack()
		if !packed.IsPacked() {
			t.Fatalf("Pack returned the flat form")
		}
		n := flat.N()
		if end := int(packed.starts[n]); len(packed.blob) != end+blockSlack || cap(packed.blob) != len(packed.blob) {
			t.Fatalf("blob len %d cap %d, want blocks %d + %d slack, exact cap", len(packed.blob), cap(packed.blob), end, blockSlack)
		}
		for _, b := range packed.blob[packed.starts[n]:] {
			if b != 0 {
				t.Fatalf("slack byte %#x, want 0", b)
			}
		}
		if !flat.Equal(packed) {
			t.Fatalf("packed not Equal to flat")
		}
		back := packed.Unpack()
		if back.N() != n {
			t.Fatalf("N changed: %d vs %d", back.N(), n)
		}
		cur := packed.Cursor()
		for v := 0; v < n; v++ {
			want := flat.Neighbors(v)
			for pass, got := range [][]int32{packed.Neighbors(v), cur.List(v), back.Neighbors(v)} {
				if len(got) != len(want) {
					t.Fatalf("vertex %d pass %d: len %d vs %d", v, pass, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("vertex %d pass %d pos %d: %d vs %d", v, pass, i, got[i], want[i])
					}
				}
			}
		}
	})
}

// fuzzRawCSR builds an n-vertex snapshot straight from bytes, bypassing the
// graph invariants the format does not depend on (symmetry, ids in range,
// no duplicates): vertex v's degree is one byte mod 8, then each id is a
// little-endian 32-bit word. Input running out ends the current list, and
// the remaining vertices get degree 0.
func fuzzRawCSR(data []byte, n int) *CSR {
	offsets := make([]int32, n+1)
	var edges []int32
	for v := 0; v < n; v++ {
		if len(data) > 0 {
			deg := int(data[0] % 8)
			data = data[1:]
			for ; deg > 0 && len(data) >= 4; deg-- {
				edges = append(edges, int32(binary.LittleEndian.Uint32(data)))
				data = data[4:]
			}
		}
		offsets[v+1] = int32(len(edges))
	}
	return &CSR{offsets: offsets, edges: edges}
}

// TestPackBlockHeaders pins the header byte Pack picks for the format's
// corner cases, so the fuzz corpus entries that name them really reach
// them: width 0, zigzag mode, and the widest deltas in either mode.
func TestPackBlockHeaders(t *testing.T) {
	const lo, hi = -1 << 31, 1<<31 - 1
	for _, tc := range []struct {
		list []int32
		hdr  byte
	}{
		{[]int32{5, 5, 5, 5}, 0},
		{[]int32{1, 2, 4, 8}, 3},
		{[]int32{4, 1, 3}, blockZigzag | 3}, // deltas −3, +2 zigzag to 5, 4
		{[]int32{lo, hi}, 32},
		{[]int32{hi, lo, hi}, blockZigzag | 33},
	} {
		if got := blockHeader(tc.list); got != tc.hdr {
			t.Errorf("blockHeader(%v) = %#x, want %#x", tc.list, got, tc.hdr)
		}
		flat := &CSR{offsets: []int32{0, int32(len(tc.list))}, edges: tc.list}
		packed := flat.Pack()
		if !flat.Equal(packed) {
			t.Errorf("%v: packed form differs", tc.list)
		}
		if got := len(packed.blob); got != blockLen(tc.list, tc.hdr)+blockSlack {
			t.Errorf("%v: blob %d bytes, want %d + %d slack", tc.list, got, blockLen(tc.list, tc.hdr), blockSlack)
		}
	}
}
