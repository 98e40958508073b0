package phy

import (
	"math"
	"testing"

	"repro/internal/graph"
)

// emptyCSR returns an edgeless frozen graph on n nodes — the SINR model
// ignores csr edges, so this is all a unit test needs.
func emptyCSR(n int) *graph.CSR { return graph.New(n).Freeze() }

func sinrOver(t *testing.T, pts []Point, params SINRParams) *SINR {
	t.Helper()
	s, err := NewSINR(pts, params)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSINRParamsDefaults(t *testing.T) {
	p := SINRParams{}.WithDefaults()
	if p.Power != 1 || p.PathLoss != 4 || p.Beta != 2 || p.CutoffFactor != DefaultCutoffFactor {
		t.Fatalf("defaults %+v", p)
	}
	if !p.NoiseSet || p.Noise != p.Power/p.Beta {
		t.Fatalf("default noise %+v", p)
	}
	// Resolving twice is idempotent — NoiseSet survives.
	q := p.WithDefaults()
	if q.Power != p.Power || q.Noise != p.Noise || q.NoiseSet != p.NoiseSet ||
		q.Beta != p.Beta || q.PathLoss != p.PathLoss || q.CutoffFactor != p.CutoffFactor {
		t.Fatalf("WithDefaults not idempotent: %+v vs %+v", q, p)
	}
}

// TestDecodeRangeBoundaries is the boundary suite for the explicit-noise
// defaults: the old sinr.Params treated Noise == 0 as "unset", making a
// noiseless channel unrepresentable; SINRParams carries a NoiseSet bit.
func TestDecodeRangeBoundaries(t *testing.T) {
	// Defaults are constructed so the decode range is exactly 1.
	if r := (SINRParams{}).DecodeRange(); math.Abs(r-1) > 1e-12 {
		t.Fatalf("default decode range %v, want 1", r)
	}
	// Stronger noise shrinks the range.
	if r := (SINRParams{Noise: 10, NoiseSet: true}).DecodeRange(); r >= 1 {
		t.Fatalf("noisy range %v, want < 1", r)
	}
	// An explicit zero-noise channel has unbounded range — the case the old
	// zero-sentinel could not represent.
	if r := (SINRParams{NoiseSet: true}).DecodeRange(); !math.IsInf(r, 1) {
		t.Fatalf("noiseless range %v, want +Inf", r)
	}
	// NoiseSet false with Noise 0 is "unset": the default, range 1.
	if r := (SINRParams{Noise: 0}).DecodeRange(); math.Abs(r-1) > 1e-12 {
		t.Fatalf("unset-noise range %v, want the default 1", r)
	}
	// Tiny but positive explicit noise: a huge finite range.
	r := (SINRParams{Noise: 1e-12, NoiseSet: true}).DecodeRange()
	if math.IsInf(r, 1) || r < 100 {
		t.Fatalf("tiny-noise range %v, want large and finite", r)
	}
	// RangeFor scales with per-node power: 16× power doubles the range at
	// the default path loss 4.
	p := SINRParams{}.WithDefaults()
	if d := p.RangeFor(16); math.Abs(d-2) > 1e-12 {
		t.Fatalf("RangeFor(16) = %v, want 2", d)
	}
}

func TestSINRParamsValidate(t *testing.T) {
	bad := []SINRParams{
		{Power: -1, PathLoss: 4, Beta: 2, Noise: 0.5, NoiseSet: true, CutoffFactor: 4},
		{Power: 1, PathLoss: 4, Beta: 0.5, Noise: 0.5, NoiseSet: true, CutoffFactor: 4},
		{Power: 1, PathLoss: 4, Beta: 2, Noise: -0.1, NoiseSet: true, CutoffFactor: 4},
		{Power: 1, PathLoss: 4, Beta: 2, Noise: math.Inf(1), NoiseSet: true, CutoffFactor: 4},
		{Power: 1, PathLoss: 4, Beta: 2, Noise: 0.5, NoiseSet: true, CutoffFactor: 0.5},
		{Power: 1, PathLoss: math.NaN(), Beta: 2, Noise: 0.5, NoiseSet: true, CutoffFactor: 4},
		{Power: 1, PathLoss: 4, Beta: 2, Noise: 0.5, NoiseSet: true, CutoffFactor: 4, Powers: []float64{1, 0}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: Validate(%+v) = nil, want error", i, p)
		}
	}
	if err := (SINRParams{}.WithDefaults()).Validate(); err != nil {
		t.Errorf("defaults invalid: %v", err)
	}
	inf := SINRParams{CutoffFactor: math.Inf(1)}.WithDefaults()
	if err := inf.Validate(); err != nil {
		t.Errorf("+Inf cutoff invalid: %v", err)
	}
}

func TestSINRSingleTransmitterInRange(t *testing.T) {
	pts := []Point{{0, 0}, {0.9, 0}, {5, 0}}
	out := resolveOnce(t, sinrOver(t, pts, SINRParams{}), emptyCSR(3), []int32{0})
	if len(out.Decoded) != 1 || out.Decoded[0] != (Decode{To: 1, From: 0}) {
		t.Fatalf("in-range listener did not decode: %+v", out)
	}
	if len(out.Collided) != 0 {
		t.Fatalf("lone transmitter produced collisions: %+v", out)
	}
}

func TestSINRInterferenceBlocks(t *testing.T) {
	// Two equidistant transmitters around a listener: SINR ≈ 1 < β=2.
	pts := []Point{{-0.5, 0}, {0, 0}, {0.5, 0}}
	out := resolveOnce(t, sinrOver(t, pts, SINRParams{}), emptyCSR(3), []int32{0, 2})
	if len(out.Decoded) != 0 {
		t.Fatalf("listener decoded despite symmetric interference: %+v", out)
	}
	if len(out.Collided) != 1 || out.Collided[0] != 1 || out.Marker {
		t.Fatalf("blocked listener not recorded as a collision: %+v", out)
	}
}

func TestSINRCaptureEffect(t *testing.T) {
	// The key divergence from the graph model: a much closer transmitter is
	// decoded even while a far transmitter is active (capture), whereas the
	// graph model would declare a collision.
	pts := []Point{{0.2, 0}, {0, 0}, {0.95, 0}}
	out := resolveOnce(t, sinrOver(t, pts, SINRParams{}), emptyCSR(3), []int32{0, 2})
	var heard *Decode
	for i := range out.Decoded {
		if out.Decoded[i].To == 1 {
			heard = &out.Decoded[i]
		}
	}
	if heard == nil || heard.From != 0 {
		t.Fatalf("capture failed: %+v", out)
	}
}

func TestSINRHeterogeneousPowers(t *testing.T) {
	// Node 0 shouts at 16× power: decode range 2, so a listener at distance
	// 1.5 decodes it while a unit-power transmitter there stays silent.
	pts := []Point{{0, 0}, {1.5, 0}}
	params := SINRParams{Powers: []float64{16, 1}}
	out := resolveOnce(t, sinrOver(t, pts, params), emptyCSR(2), []int32{0})
	if len(out.Decoded) != 1 || out.Decoded[0] != (Decode{To: 1, From: 0}) {
		t.Fatalf("high-power transmitter not decoded at 1.5: %+v", out)
	}
	params2 := SINRParams{Powers: []float64{1, 1}}
	out = resolveOnce(t, sinrOver(t, pts, params2), emptyCSR(2), []int32{0})
	if len(out.Decoded) != 0 {
		t.Fatalf("unit-power transmitter decoded beyond range: %+v", out)
	}
}

func TestSINRFarFieldCutoff(t *testing.T) {
	// A listener midway between a near transmitter and a just-too-strong
	// interference field: under the exact model (+Inf cutoff) the far
	// transmitter's power must be included; with a tight cutoff it is
	// dropped and the near signal decodes. Placing the interferer outside
	// CutoffFactor×range makes the two modes observably different — the
	// documented approximation.
	pts := []Point{{0, 0}, {0.99, 0}, {4.0, 0}}
	// Exact: interference from 4.0 away is tiny but the decode margin at
	// d=0.99 is tinier still? Compute: signal = 0.99^-4 ≈ 1.041, noise 0.5,
	// interference = 3.01^-4 ≈ 0.0122 → SINR ≈ 2.033 ≥ 2 decodes. Shrink
	// the margin by moving the listener to 0.999.
	pts[1][0] = 0.999
	exact := resolveOnce(t, sinrOver(t, pts, SINRParams{CutoffFactor: math.Inf(1)}), emptyCSR(3), []int32{0, 2})
	cut := resolveOnce(t, sinrOver(t, pts, SINRParams{CutoffFactor: 2}), emptyCSR(3), []int32{0, 2})
	decodedTo1 := func(o Outcome) bool {
		for _, d := range o.Decoded {
			if d.To == 1 {
				return true
			}
		}
		return false
	}
	if decodedTo1(exact) {
		t.Fatalf("exact mode decoded on the boundary: %+v", exact)
	}
	if !decodedTo1(cut) {
		t.Fatalf("cutoff mode did not drop the far-field interference: %+v", cut)
	}
}

func TestSINRNoiselessChannelIsDense(t *testing.T) {
	// Explicit zero noise: unbounded decode range, the grid cannot bucket,
	// and a lone transmitter is decodable arbitrarily far away.
	pts := []Point{{0, 0}, {500, 0}}
	params := SINRParams{NoiseSet: true, CutoffFactor: math.Inf(1)}
	out := resolveOnce(t, sinrOver(t, pts, params), emptyCSR(2), []int32{0})
	if len(out.Decoded) != 1 || out.Decoded[0] != (Decode{To: 1, From: 0}) {
		t.Fatalf("noiseless channel did not deliver at distance 500: %+v", out)
	}
}

func TestSINRRejectsMismatchedGeometry(t *testing.T) {
	s := sinrOver(t, []Point{{0, 0}}, SINRParams{})
	if err := s.Sync(0, emptyCSR(2)); err == nil {
		t.Fatal("want position/node count mismatch error")
	}
	if _, err := NewSINR(nil, SINRParams{}); err == nil {
		t.Fatal("want no-points error")
	}
	if _, err := NewSINR([]Point{{0, 0}}, SINRParams{Beta: 0.5}); err == nil {
		t.Fatal("want beta error")
	}
	if _, err := NewMobileSINR(nil, SINRParams{}); err == nil {
		t.Fatal("want nil-source error")
	}
	wrong := sinrOver(t, []Point{{0, 0}, {1, 0}}, SINRParams{Powers: []float64{1, 1, 1}})
	if err := wrong.Sync(0, emptyCSR(2)); err == nil {
		t.Fatal("want powers-length mismatch error")
	}
}

// TestSINRCutoffAtBucketGranularity pins the far-field contract at the
// exact boundary: a transmitter at distance == cutoff contributes (the
// predicate is d ≤ cutoff), one ulp farther it does not — and the bucketed
// grid must honor both even when the pair spans the full candidate ring.
// CutoffFactor 3 makes the internal cell side exactly 1.0, so the geometry
// below is representable without rounding.
func TestSINRCutoffAtBucketGranularity(t *testing.T) {
	// rx decodes tx alone (SINR 2.02 ≥ β=2); an interferer at exactly the
	// cutoff distance 3 pushes it to 1.97 < 2. Whether rx decodes is
	// therefore precisely the question "was the boundary interferer
	// counted".
	mk := func(ix float64) Outcome {
		pts := []Point{{ix, 0}, {0, 0}, {0.9975, 0}}
		return resolveOnce(t, sinrOver(t, pts, SINRParams{CutoffFactor: 3}), emptyCSR(3), []int32{0, 2})
	}
	at := mk(-3) // distance from rx exactly == cutoff
	if len(at.Decoded) != 0 {
		t.Fatalf("interferer at d == cutoff was dropped: %+v", at)
	}
	if len(at.Collided) != 1 || at.Collided[0] != 1 {
		t.Fatalf("blocked listener not recorded: %+v", at)
	}
	past := mk(math.Nextafter(-3, -4)) // one ulp beyond the cutoff
	if len(past.Decoded) != 1 || past.Decoded[0] != (Decode{To: 1, From: 2}) {
		t.Fatalf("interferer one ulp past cutoff still counted: %+v", past)
	}
}

// TestSINRReceiverOnBucketEdge places a receiver exactly on an interior
// grid-cell boundary (x = 2.0 with cell side exactly 1.0): it must land in
// exactly one cell and still hear transmitters from the cells on both
// sides of the edge.
func TestSINRReceiverOnBucketEdge(t *testing.T) {
	pts := []Point{{0, 0}, {2, 0}, {1.5, 0}, {2.5, 0}}
	for _, tx := range []int32{2, 3} {
		out := resolveOnce(t, sinrOver(t, pts, SINRParams{CutoffFactor: 3}), emptyCSR(4), []int32{tx})
		found := false
		for _, d := range out.Decoded {
			if d == (Decode{To: 1, From: tx}) {
				found = true
			}
		}
		if !found {
			t.Fatalf("edge receiver missed transmitter %d: %+v", tx, out)
		}
	}
}

// TestSINRFrontierReuseIdentical pins the between-steps reset: resolving
// a transmitter set on a model and frontier that already served another
// step (then Clear) must give exactly the outcome of a fresh model and
// frontier, as the engine reuses both for the whole run.
func TestSINRFrontierReuseIdentical(t *testing.T) {
	pts := []Point{{0, 0}, {0.4, 0.1}, {0.8, 0}, {1.2, 0.3}, {1.6, 0}, {2.0, 0.2}}
	csr := emptyCSR(len(pts))
	fresh := sinrOver(t, pts, SINRParams{})
	if err := fresh.Sync(0, csr); err != nil {
		t.Fatal(err)
	}
	var fa Frontier
	fa.Resize(len(pts))
	fa.Set([]int32{0, 2, 4})
	var a Outcome
	fresh.Resolve(&fa, &a)

	reused := sinrOver(t, pts, SINRParams{})
	if err := reused.Sync(0, csr); err != nil {
		t.Fatal(err)
	}
	var fb Frontier
	fb.Resize(len(pts))
	var b Outcome
	fb.Set([]int32{1, 3, 5})
	reused.Resolve(&fb, &b)
	reused.Clear()
	fb.Clear()
	b.Reset()
	fb.Set([]int32{0, 2, 4})
	reused.Resolve(&fb, &b)

	if len(a.Decoded) != len(b.Decoded) || len(a.Collided) != len(b.Collided) {
		t.Fatalf("reused frontier diverged: %+v vs %+v", a, b)
	}
	for i := range a.Decoded {
		if a.Decoded[i] != b.Decoded[i] {
			t.Fatalf("decode %d differs: %+v vs %+v", i, a.Decoded[i], b.Decoded[i])
		}
	}
	for i := range a.Collided {
		if a.Collided[i] != b.Collided[i] {
			t.Fatalf("collision %d differs: %d vs %d", i, a.Collided[i], b.Collided[i])
		}
	}
}
