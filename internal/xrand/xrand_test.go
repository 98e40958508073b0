package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed generators diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical draws out of 1000", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split(0)
	c2 := parent.Split(1)
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("sibling splits produced identical first draw")
	}
	// Split must be stable: same stream from same parent state.
	parent2 := New(7)
	d1 := parent2.Split(0)
	if got, want := d1.Uint64(), New(7).Split(0).Uint64(); got != want {
		t.Fatalf("split not stable: %d vs %d", got, want)
	}
}

func TestSplitStableAcrossParentDraws(t *testing.T) {
	p := New(9)
	before := p.Split(5).Uint64()
	p2 := New(9)
	p2.Split(3) // a different split does not change parent state
	after := p2.Split(5).Uint64()
	if before != after {
		t.Fatal("Split should not mutate parent state")
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	for n := 1; n <= 64; n++ {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnUniform(t *testing.T) {
	r := New(11)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d count %d too far from %v", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestBernoulliExtremes(t *testing.T) {
	r := New(1)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBernoulliMean(t *testing.T) {
	r := New(13)
	const p, draws = 0.3, 200000
	hits := 0
	for i := 0; i < draws; i++ {
		if r.Bernoulli(p) {
			hits++
		}
	}
	got := float64(hits) / draws
	if math.Abs(got-p) > 0.01 {
		t.Fatalf("Bernoulli(%v) empirical mean %v", p, got)
	}
}

func TestExponentialMean(t *testing.T) {
	r := New(17)
	for _, rate := range []float64{0.5, 1, 4} {
		const draws = 200000
		sum := 0.0
		for i := 0; i < draws; i++ {
			v := r.Exponential(rate)
			if v < 0 {
				t.Fatalf("negative exponential sample %v", v)
			}
			sum += v
		}
		mean := sum / draws
		want := 1 / rate
		if math.Abs(mean-want) > 0.05*want+0.01 {
			t.Errorf("Exp(%v) mean %v, want ~%v", rate, mean, want)
		}
	}
}

func TestExponentialMemoryless(t *testing.T) {
	// P(X > 2/rate) should be about e^-2.
	r := New(23)
	const rate, draws = 2.0, 100000
	over := 0
	for i := 0; i < draws; i++ {
		if r.Exponential(rate) > 2/rate {
			over++
		}
	}
	got := float64(over) / draws
	want := math.Exp(-2)
	if math.Abs(got-want) > 0.01 {
		t.Fatalf("tail prob %v, want ~%v", got, want)
	}
}

func TestGeometricMean(t *testing.T) {
	r := New(29)
	const p, draws = 0.25, 100000
	sum := 0
	for i := 0; i < draws; i++ {
		g := r.Geometric(p)
		if g < 0 {
			t.Fatalf("negative geometric %d", g)
		}
		sum += g
	}
	mean := float64(sum) / draws
	want := (1 - p) / p
	if math.Abs(mean-want) > 0.1 {
		t.Fatalf("Geometric(%v) mean %v, want ~%v", p, mean, want)
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%50) + 1
		p := New(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPermUniformFirstElement(t *testing.T) {
	r := New(31)
	const n, draws = 5, 50000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Perm(n)[0]]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("first element %d count %d, want ~%v", i, c, want)
		}
	}
}

func TestShufflePreservesMultiset(t *testing.T) {
	r := New(41)
	xs := []int{1, 2, 3, 4, 5, 6, 7}
	sum := 0
	for _, v := range xs {
		sum += v
	}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	got := 0
	for _, v := range xs {
		got += v
	}
	if got != sum {
		t.Fatalf("shuffle changed multiset sum: %d vs %d", got, sum)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	New(1).Intn(0)
}

func TestExponentialPanicsOnNonPositiveRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Exponential(0)")
		}
	}()
	New(1).Exponential(0)
}
