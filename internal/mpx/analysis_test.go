package mpx

import (
	"math"
	"strconv"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/xrand"
)

func TestDistanceProfilePath(t *testing.T) {
	g := gen.Path(10)
	// Centers at 0, 3, 7; profile from v=3.
	p, err := DistanceProfile(g, []int{0, 3, 7}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if p.M[0] != 1 { // 3 itself
		t.Fatalf("m_0 = %d", p.M[0])
	}
	if p.M[3] != 1 { // node 0
		t.Fatalf("m_3 = %d", p.M[3])
	}
	if p.M[4] != 1 { // node 7
		t.Fatalf("m_4 = %d", p.M[4])
	}
	if _, err := DistanceProfile(g, []int{0}, 99); err == nil {
		t.Fatal("want range error")
	}
	if _, err := DistanceProfile(g, []int{-2}, 0); err == nil {
		t.Fatal("want center range error")
	}
}

func TestTBSHandComputed(t *testing.T) {
	// m = [1, 2]: T = 0·1·e⁰ + 1·2·e^-β; B = 1 + 2e^-β.
	p := Profile{M: []int{1, 2}}
	beta := 0.5
	tb, bb, sb := p.TBS(beta)
	e := math.Exp(-beta)
	wantT, wantB := 2*e, 1+2*e
	if math.Abs(tb-wantT) > 1e-12 || math.Abs(bb-wantB) > 1e-12 {
		t.Fatalf("T=%v B=%v, want %v %v", tb, bb, wantT, wantB)
	}
	if math.Abs(sb-wantT/wantB) > 1e-12 {
		t.Fatalf("S=%v", sb)
	}
}

func TestTBSEmptyProfile(t *testing.T) {
	p := Profile{M: []int{0, 0}}
	_, _, sb := p.TBS(1)
	if !math.IsInf(sb, 1) {
		t.Fatalf("S on empty profile = %v, want +Inf", sb)
	}
}

func TestSJ(t *testing.T) {
	p := Profile{M: []int{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}} // m_i = 1 for i ≤ 9
	if got := p.SJ(0); got != 3 {                        // radius 2^1 = 2 → i=0..2
		t.Fatalf("s_0 = %d, want 3", got)
	}
	if got := p.SJ(1); got != 5 { // radius 4
		t.Fatalf("s_1 = %d, want 5", got)
	}
	if got := p.SJ(10); got != 10 { // saturates
		t.Fatalf("s_10 = %d, want 10", got)
	}
	if got := p.SJ(-1); got != 0 {
		t.Fatalf("s_-1 = %d", got)
	}
}

func TestBValues(t *testing.T) {
	// α = D → log_D α = 1 → b = 4.
	b, err := B(1024, 1024)
	if err != nil || b != 4 {
		t.Fatalf("B(D,D) = %d err %v, want 4", b, err)
	}
	// α = D² → log = 2 → b = 2^(1+2) = 8.
	b2, err := B(32, 1024)
	if err != nil || b2 != 8 {
		t.Fatalf("B(32,1024) = %d err %v, want 8", b2, err)
	}
	// α < D clamps to 4.
	b3, err := B(1024, 16)
	if err != nil || b3 != 4 {
		t.Fatalf("B clamp = %d err %v", b3, err)
	}
	if _, err := B(1, 10); err == nil {
		t.Fatal("want error for D < 2")
	}
	// Sanity: b is in [4·max(1,logDα), 8·max(1,logDα)].
	for _, tc := range []struct{ d, a int }{{16, 256}, {16, 4096}, {64, 64 * 64 * 64}} {
		b, err := B(tc.d, tc.a)
		if err != nil {
			t.Fatal(err)
		}
		l := math.Log(float64(tc.a)) / math.Log(float64(tc.d))
		if l < 1 {
			l = 1
		}
		if float64(b) < 4*l-1e-9 || float64(b) > 8*l+1e-9 {
			t.Fatalf("B(%d,%d)=%d outside [4l,8l] with l=%v", tc.d, tc.a, b, l)
		}
	}
}

func TestJRange(t *testing.T) {
	jmin, jmax := JRange(1 << 20) // log D = 20 → [1, 2]
	if jmin != 1 || jmax != 2 {
		t.Fatalf("JRange(2^20) = [%d,%d]", jmin, jmax)
	}
	jmin, jmax = JRange(4)
	if jmin < 1 || jmax <= jmin-1 || jmax < jmin+1 {
		t.Fatalf("JRange(4) = [%d,%d]", jmin, jmax)
	}
	// Large D widens the range: log₂D = 62 → [1, 6]. Only a 64-bit int
	// holds 2^62; the shift below is 1<<30 on 32-bit targets, where the
	// case is skipped.
	if strconv.IntSize < 64 {
		return
	}
	jminL, jmaxL := JRange(1 << (strconv.IntSize - 2))
	if jminL != 1 || jmaxL != 6 {
		t.Fatalf("JRange(2^62) = [%d,%d], want [1,6]", jminL, jmaxL)
	}
}

func TestIsBadJFlatProfileIsGood(t *testing.T) {
	// Slow growth: m_i = 1 everywhere → s_j grows linearly → never bad.
	m := make([]int, 4096)
	for i := range m {
		m[i] = 1
	}
	p := Profile{M: m}
	if p.IsBadJ(1, 4) || p.IsBadJ(3, 4) {
		t.Fatal("flat profile flagged bad")
	}
}

func TestIsBadJExplosiveProfileIsBad(t *testing.T) {
	// Nothing nearby, then an enormous count at a far radius, arranged so
	// s_{j+log b+r} / s_{j+log b} > 2^{b·2^{r-1}} for j=1, b=4, r=8.
	// j+log b = 3 → radius 2^4 = 16; r=8 → index 11 → radius 2^12 = 4096.
	m := make([]int, 4097)
	m[0] = 1 // s_3 = 1
	// growth needed: > 2^(4·128) = 2^512 — impossible with real counts, so
	// instead verify the log-space comparator directly with a huge count at
	// b=2? Use b=4, r=8 requires 2^512; use a profile where base is tiny and
	// bump r range by using small b: the clamp keeps b ≥ 4, so instead test
	// via SJ saturation: no realizable profile can be bad at b=4 unless the
	// count ratio exceeds 2^512 — reflecting Lemma 5's strength. Check the
	// zero-base pathological case instead.
	p := Profile{M: m}
	if p.IsBadJ(1, 4) {
		t.Fatal("profile with growth below threshold flagged bad")
	}
	// Zero base (malformed: no center within radius 16) counts as bad.
	var zeros Profile
	zeros.M = make([]int, 4097)
	zeros.M[4096] = 10
	if !zeros.IsBadJ(1, 4) {
		t.Fatal("zero-base profile should be flagged bad")
	}
}

func TestCountBadJs(t *testing.T) {
	m := make([]int, 1024)
	for i := range m {
		m[i] = 1 + i/100
	}
	p := Profile{M: m}
	if got := p.CountBadJs(1, 3, 4); got != 0 {
		t.Fatalf("benign profile has %d bad js", got)
	}
}

func TestTheoremTwoBound(t *testing.T) {
	if got := TheoremTwoBound(4, 3, 1); got != 32 {
		t.Fatalf("bound = %v, want 32", got)
	}
	if got := TheoremTwoBound(8, 0, 2.5); got != 20 {
		t.Fatalf("bound = %v, want 20", got)
	}
}

func TestMeanCenterDistanceMatchesLemma3(t *testing.T) {
	// On a cycle with MIS centers, the empirical mean distance must be
	// bounded by 5·S_β (Lemma 3), and positive for non-center nodes.
	rng := xrand.New(11)
	g := gen.Cycle(64)
	misSet := g.GreedyMIS(nil)
	v := 1 // not in greedy MIS on a cycle starting at 0? ensure non-center below
	beta := 0.25
	prof, err := DistanceProfile(g, misSet, v)
	if err != nil {
		t.Fatal(err)
	}
	_, _, sb := prof.TBS(beta)
	mean, err := MeanCenterDistance(g, misSet, v, beta, 4000, rng)
	if err != nil {
		t.Fatal(err)
	}
	if mean > 5*sb+1e-9 {
		t.Fatalf("empirical mean %v exceeds Lemma 3 bound %v", mean, 5*sb)
	}
	if mean < 0 {
		t.Fatalf("negative mean %v", mean)
	}
}

func TestMeanCenterDistanceUnreachable(t *testing.T) {
	rng := xrand.New(12)
	if _, err := MeanCenterDistance(gen.Path(4), []int{0}, 0, 0.5, 10, rng); err != nil {
		t.Fatal(err)
	}
	// Two components: center 0 cannot reach node 3.
	disc := graph.New(4)
	disc.AddEdge(0, 1)
	disc.AddEdge(2, 3)
	if _, err := MeanCenterDistance(disc, []int{0}, 3, 0.5, 10, rng); err == nil {
		t.Fatal("want unreachable error")
	}
}
