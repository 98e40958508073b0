package phy

import (
	"testing"

	"repro/internal/graph"
)

// star returns K_{1,n-1} frozen, center 0.
func star(n int) *graph.CSR {
	g := graph.New(n)
	for v := 1; v < n; v++ {
		g.AddEdge(0, v)
	}
	return g.Freeze()
}

// resolveOnce drives one synthetic step through a model.
func resolveOnce(t *testing.T, m Model, csr *graph.CSR, tx []int32) Outcome {
	t.Helper()
	if err := m.Sync(0, csr); err != nil {
		t.Fatal(err)
	}
	var f Frontier
	f.Resize(csr.N())
	f.Set(tx)
	var out Outcome
	m.Resolve(&f, &out)
	snap := Outcome{Marker: out.Marker}
	snap.Decoded = append(snap.Decoded, out.Decoded...)
	snap.Collided = append(snap.Collided, out.Collided...)
	m.Clear()
	f.Clear()
	// The all-zero between-steps invariant: an empty follow-up step must
	// resolve to nothing.
	out.Reset()
	m.Resolve(&f, &out)
	if len(out.Decoded) != 0 || len(out.Collided) != 0 {
		t.Fatalf("%s: scratch not cleared, empty step resolved to %+v", m.Name(), out)
	}
	m.Clear()
	return snap
}

func TestCollisionModelRule(t *testing.T) {
	csr := star(4)
	// One transmitting leaf: the center decodes it, other leaves silent.
	out := resolveOnce(t, NewCollision(), csr, []int32{1})
	if len(out.Decoded) != 1 || out.Decoded[0] != (Decode{To: 0, From: 1}) {
		t.Fatalf("single transmitter: %+v", out)
	}
	if len(out.Collided) != 0 || out.Marker {
		t.Fatalf("single transmitter produced collisions: %+v", out)
	}
	// Two transmitting leaves: the center collides, silently (no marker).
	out = resolveOnce(t, NewCollision(), csr, []int32{1, 2})
	if len(out.Decoded) != 0 || len(out.Collided) != 1 || out.Collided[0] != 0 || out.Marker {
		t.Fatalf("two transmitters: %+v", out)
	}
	// CD variant: same reception, but the collision is marked.
	out = resolveOnce(t, NewCollisionCD(), csr, []int32{1, 2})
	if len(out.Collided) != 1 || !out.Marker {
		t.Fatalf("CD two transmitters: %+v", out)
	}
	// The transmitting center is half-duplex: leaves decode it, it hears
	// nothing even while a leaf transmits at it.
	out = resolveOnce(t, NewCollision(), csr, []int32{0, 1})
	for _, d := range out.Decoded {
		if d.To == 0 || d.To == 1 {
			t.Fatalf("transmitter received: %+v", out)
		}
	}
	if len(out.Decoded) != 2 { // leaves 2, 3 decode the center
		t.Fatalf("leaves did not decode the center: %+v", out)
	}
}

// TestFrontierSetContract pins the one-call-per-step frontier: Set installs
// the whole ascending list (bits and list agree), Clear empties both, and a
// second Set before Clear panics instead of merging batches.
func TestFrontierSetContract(t *testing.T) {
	var f Frontier
	f.Resize(130)
	tx := []int32{1, 64, 129}
	f.Set(tx)
	if f.Len() != 3 || &f.List()[0] != &tx[0] {
		t.Fatalf("Set did not install the caller's list: %v", f.List())
	}
	for v := int32(0); v < 130; v++ {
		if f.Has(v) != (v == 1 || v == 64 || v == 129) {
			t.Fatalf("Has(%d) = %v after Set(%v)", v, f.Has(v), tx)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("second Set on a non-empty frontier did not panic")
			}
		}()
		f.Set([]int32{2})
	}()
	f.Clear()
	if f.Len() != 0 || f.Has(1) || f.Has(64) || f.Has(129) {
		t.Fatalf("Clear left transmitters behind: %v", f.List())
	}
	f.Set([]int32{2})
	if !f.Has(2) || f.Has(1) || f.Len() != 1 {
		t.Fatalf("Set after Clear: %v", f.List())
	}
}

func TestModelNames(t *testing.T) {
	if NewCollision().Name() != "collision" || NewCollisionCD().Name() != "collision-cd" {
		t.Fatal("collision model names drifted")
	}
	s, err := NewSINR([]Point{{0, 0}}, SINRParams{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "sinr" {
		t.Fatal("sinr model name drifted")
	}
}
