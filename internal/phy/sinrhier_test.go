package phy

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/xrand"
)

// hierPair builds two SINR models over the same deployment, one with the
// two-level ring prune enabled (the default when rc ≥ 2) and one with the
// test hook forcing single-level pruning, both synced.
func hierPair(t *testing.T, pts []Point, params SINRParams) (on, off *SINR) {
	t.Helper()
	csr := emptyCSR(len(pts))
	var err error
	if on, err = NewSINR(pts, params); err != nil {
		t.Fatal(err)
	}
	if off, err = NewSINR(pts, params); err != nil {
		t.Fatal(err)
	}
	off.hierOff = true
	if err := on.Sync(0, csr); err != nil {
		t.Fatal(err)
	}
	if err := off.Sync(0, csr); err != nil {
		t.Fatal(err)
	}
	return on, off
}

// TestHierRingCellsBitIdentical pins the two-level grid invariant at its
// strongest: for every transmitter, the surviving-cell sequence (order
// included) is identical with the coarse-block prune on and off — the
// blocks only ever reject cells the fine test rejects.
func TestHierRingCellsBitIdentical(t *testing.T) {
	rng := xrand.New(41)
	for _, n := range []int{16, 200, 1500} {
		side := math.Sqrt(float64(n) * math.Pi / 8)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{rng.Float64() * side, rng.Float64() * side}
		}
		on, off := hierPair(t, pts, SINRParams{})
		if !on.hier {
			t.Fatalf("n=%d: hierarchy not enabled (rc=%d)", n, on.rc)
		}
		if off.hier {
			t.Fatal("test hook failed to disable hierarchy")
		}
		for u := 0; u < n; u++ {
			a := append([]int32(nil), on.ringCells(int32(u))...)
			b := off.ringCells(int32(u))
			if len(a) != len(b) {
				t.Fatalf("n=%d tx %d: %d cells with hierarchy, %d without", n, u, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("n=%d tx %d cell %d: %d vs %d (sequence differs)", n, u, i, a[i], b[i])
				}
			}
		}
	}
}

// TestHierResolveBitIdentical runs random multi-transmitter steps through
// both models and requires byte-identical outcomes — decode pairs and
// collision lists in the same order, not just as sets, since ringCells
// promises an identical cell sequence.
func TestHierResolveBitIdentical(t *testing.T) {
	rng := xrand.New(97)
	for trial := 0; trial < 30; trial++ {
		n := 50 + int(rng.Intn(400))
		side := math.Sqrt(float64(n) * math.Pi / 8)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{rng.Float64() * side, rng.Float64() * side}
		}
		params := SINRParams{}
		if trial%3 == 1 {
			pw := make([]float64, n)
			for i := range pw {
				pw[i] = 0.5 + rng.Float64()
			}
			params.Powers = pw
		}
		on, off := hierPair(t, pts, params)
		var txs []int32
		for v := 0; v < n; v++ {
			if rng.Intn(8) == 0 {
				txs = append(txs, int32(v))
			}
		}
		if len(txs) == 0 {
			txs = append(txs, int32(trial%n))
		}
		var f Frontier
		f.Resize(n)
		f.Set(txs)
		var outOn, outOff Outcome
		on.Resolve(&f, &outOn)
		on.Clear()
		off.Resolve(&f, &outOff)
		off.Clear()
		f.Clear()
		if len(outOn.Decoded) != len(outOff.Decoded) || len(outOn.Collided) != len(outOff.Collided) {
			t.Fatalf("trial %d: outcome sizes differ: %d/%d decodes, %d/%d collisions",
				trial, len(outOn.Decoded), len(outOff.Decoded), len(outOn.Collided), len(outOff.Collided))
		}
		for i := range outOn.Decoded {
			if outOn.Decoded[i] != outOff.Decoded[i] {
				t.Fatalf("trial %d decode %d: %v vs %v", trial, i, outOn.Decoded[i], outOff.Decoded[i])
			}
		}
		for i := range outOn.Collided {
			if outOn.Collided[i] != outOff.Collided[i] {
				t.Fatalf("trial %d collision %d: %d vs %d", trial, i, outOn.Collided[i], outOff.Collided[i])
			}
		}
	}
}

// TestHierDisabledAtSmallRings: a heavily coarsened grid (rc = 1) must not
// enable the hierarchy — the 3×3 ring fits in one block and the coarse test
// would be pure overhead.
func TestHierDisabledAtSmallRings(t *testing.T) {
	// A huge spread with few nodes forces the O(n)-cell coarsening, driving
	// cellSize far above cutoff/3.
	rng := xrand.New(7)
	pts := make([]Point, 30)
	for i := range pts {
		pts[i] = Point{rng.Float64() * 4000, rng.Float64() * 4000}
	}
	s, err := NewSINR(pts, SINRParams{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(0, emptyCSR(len(pts))); err != nil {
		t.Fatal(err)
	}
	if s.dense {
		t.Skip("deployment fell back to dense; nothing to check")
	}
	if s.rc < 2 && s.hier {
		t.Fatalf("hierarchy enabled at rc=%d", s.rc)
	}
}

// FuzzSINRHierVsFlat fuzzes the two-level prune differentially: random
// deployments, cutoff factors, and transmitter sets must produce
// byte-identical outcomes with the coarse-block prune on and off. Bytes
// decode as: data[0] node count, data[1] cutoff selector, data[2:10] RNG
// seed, tail selects transmitters by bit.
func FuzzSINRHierVsFlat(f *testing.F) {
	f.Add([]byte{40, 0, 1, 2, 3, 4, 5, 6, 7, 8, 0xff, 0x0f})
	f.Add([]byte{12, 2, 9, 9, 9, 9, 9, 9, 9, 9, 0xaa})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 11 {
			return
		}
		n := 4 + int(data[0])%120
		cutoffs := []float64{2, 3, 4, 6}
		cutF := cutoffs[int(data[1])%len(cutoffs)]
		seed := binary.LittleEndian.Uint64(data[2:10])
		rng := xrand.New(seed | 1)
		side := math.Sqrt(float64(n) * math.Pi / 8)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{rng.Float64() * side, rng.Float64() * side}
		}
		params := SINRParams{CutoffFactor: cutF}
		csr := graph.New(n).Freeze()
		on, err := NewSINR(pts, params)
		if err != nil {
			t.Fatal(err)
		}
		off, err := NewSINR(pts, params)
		if err != nil {
			t.Fatal(err)
		}
		off.hierOff = true
		if err := on.Sync(0, csr); err != nil {
			t.Fatal(err)
		}
		if err := off.Sync(0, csr); err != nil {
			t.Fatal(err)
		}
		var txs []int32
		sel := data[10:]
		for v := 0; v < n; v++ {
			if sel[(v/8)%len(sel)]&(1<<(v%8)) != 0 {
				txs = append(txs, int32(v))
			}
		}
		if len(txs) == 0 {
			return
		}
		var fr Frontier
		fr.Resize(n)
		fr.Set(txs)
		var outOn, outOff Outcome
		on.Resolve(&fr, &outOn)
		off.Resolve(&fr, &outOff)
		if len(outOn.Decoded) != len(outOff.Decoded) || len(outOn.Collided) != len(outOff.Collided) {
			t.Fatalf("outcome sizes differ: %d/%d decodes, %d/%d collisions",
				len(outOn.Decoded), len(outOff.Decoded), len(outOn.Collided), len(outOff.Collided))
		}
		for i := range outOn.Decoded {
			if outOn.Decoded[i] != outOff.Decoded[i] {
				t.Fatalf("decode %d: %v vs %v", i, outOn.Decoded[i], outOff.Decoded[i])
			}
		}
		for i := range outOn.Collided {
			if outOn.Collided[i] != outOff.Collided[i] {
				t.Fatalf("collision %d: %d vs %d", i, outOn.Collided[i], outOff.Collided[i])
			}
		}
	})
}
