package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func TestMeanStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Fatalf("mean %v", m)
	}
	if s := StdDev(xs); math.Abs(s-2.138089935) > 1e-6 {
		t.Fatalf("stddev %v", s)
	}
	if Mean(nil) != 0 || StdDev(nil) != 0 || StdDev([]float64{1}) != 0 {
		t.Fatal("empty-input defaults")
	}
}

func TestMedianQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if m := Quantile(xs, 0.5); m != 2.5 {
		t.Fatalf("median %v", m)
	}
	if q := Quantile(xs, 0); q != 1 {
		t.Fatalf("q0 %v", q)
	}
	if q := Quantile(xs, 1); q != 4 {
		t.Fatalf("q1 %v", q)
	}
	if q := Quantile(xs, 0.25); math.Abs(q-1.75) > 1e-12 {
		t.Fatalf("q.25 %v", q)
	}
	if Quantile(nil, 0.5) != 0 {
		t.Fatal("empty quantile")
	}
	// Quantile must not mutate its input.
	ys := []float64{3, 1, 2}
	Quantile(ys, 0.5)
	if ys[0] != 3 || ys[1] != 1 || ys[2] != 2 {
		t.Fatal("input mutated")
	}
}

// TestPercentile checks p-th percentiles, taken as Quantile(xs, p/100), on
// unsorted input and on a ramp.
func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if p := Quantile(xs, 50.0/100); p != 3 {
		t.Fatalf("p50 %v", p)
	}
	if p := Quantile(xs, 0.0/100); p != 1 {
		t.Fatalf("p0 %v", p)
	}
	if p := Quantile(xs, 100.0/100); p != 5 {
		t.Fatalf("p100 %v", p)
	}
	if p := Quantile(xs, 25.0/100); math.Abs(p-2) > 1e-12 {
		t.Fatalf("p25 %v", p)
	}
	// p95/p99 interpolate within the top gap of a 0..100 ramp.
	ramp := make([]float64, 101)
	for i := range ramp {
		ramp[i] = float64(i)
	}
	if p := Quantile(ramp, 95.0/100); math.Abs(p-95) > 1e-9 {
		t.Fatalf("p95 %v", p)
	}
	if p := Quantile(ramp, 99.0/100); math.Abs(p-99) > 1e-9 {
		t.Fatalf("p99 %v", p)
	}
	if Quantile(nil, 95.0/100) != 0 {
		t.Fatal("empty percentile")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Fatal("min/max wrong")
	}
	if Min(nil) != 0 || Max(nil) != 0 {
		t.Fatal("empty defaults")
	}
}

func TestSummarizeAndCI95(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 || s.StdDev != 0 || s.CI95Lo != 0 || s.CI95Hi != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
	s = Summarize([]float64{3})
	if s.N != 1 || s.Mean != 3 || s.CI95Lo != 3 || s.CI95Hi != 3 {
		t.Fatalf("singleton summary = %+v", s)
	}
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	s = Summarize(xs)
	if s.N != 8 || s.Mean != 5 {
		t.Fatalf("summary = %+v", s)
	}
	wantHalf := 1.96 * StdDev(xs) / math.Sqrt(8)
	if math.Abs(s.CI95Hi-s.Mean-wantHalf) > 1e-12 || math.Abs(s.Mean-s.CI95Lo-wantHalf) > 1e-12 {
		t.Fatalf("CI = [%v, %v], want mean ± %v", s.CI95Lo, s.CI95Hi, wantHalf)
	}
	if s.CI95Lo >= s.Mean || s.CI95Hi <= s.Mean {
		t.Fatalf("CI does not bracket the mean: %+v", s)
	}
}

func TestLinearFitExact(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{3, 5, 7, 9} // y = 2x + 1
	f, err := LinearFit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.Slope-2) > 1e-12 || math.Abs(f.Intercept-1) > 1e-12 {
		t.Fatalf("fit %+v", f)
	}
	if math.Abs(f.R2-1) > 1e-12 {
		t.Fatalf("R² %v", f.R2)
	}
}

func TestLinearFitErrors(t *testing.T) {
	if _, err := LinearFit([]float64{1}, []float64{1}); err == nil {
		t.Fatal("want too-few error")
	}
	if _, err := LinearFit([]float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("want mismatch error")
	}
	if _, err := LinearFit([]float64{2, 2}, []float64{1, 3}); err == nil {
		t.Fatal("want degenerate error")
	}
}

func TestLinearFitNoisy(t *testing.T) {
	rng := xrand.New(1)
	var x, y []float64
	for i := 0; i < 200; i++ {
		xi := float64(i)
		x = append(x, xi)
		y = append(y, 3*xi-7+normal(rng))
	}
	f, err := LinearFit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.Slope-3) > 0.01 || math.Abs(f.Intercept+7) > 1 {
		t.Fatalf("fit %+v", f)
	}
	if f.R2 < 0.99 {
		t.Fatalf("R² %v", f.R2)
	}
}

// normal samples a standard normal from rng via the Marsaglia polar method:
// the noise TestLinearFitNoisy fits through.
func normal(rng *xrand.RNG) float64 {
	for {
		u := 2*rng.Float64() - 1
		v := 2*rng.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

func TestPowerLawExponent(t *testing.T) {
	var x, y []float64
	for i := 1; i <= 50; i++ {
		x = append(x, float64(i))
		y = append(y, 2.5*math.Pow(float64(i), 1.7))
	}
	e, err := PowerLawExponent(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e-1.7) > 1e-9 {
		t.Fatalf("exponent %v", e)
	}
	// Non-positive values skipped.
	e2, err := PowerLawExponent([]float64{0, 1, 2, 4}, []float64{5, 1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e2-1) > 1e-9 {
		t.Fatalf("exponent with skips %v", e2)
	}
	if _, err := PowerLawExponent([]float64{0}, []float64{1}); err == nil {
		t.Fatal("want error with <2 usable points")
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		rng := xrand.New(seed)
		n := int(nRaw%30) + 2
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64() * 100
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := Quantile(xs, q)
			if v < prev-1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTableMarkdown(t *testing.T) {
	tb := &Table{Title: "demo", Header: []string{"n", "steps"}}
	tb.AddRow("16", "120")
	tb.AddRowf(32, 3.14159)
	md := tb.Markdown()
	if !strings.Contains(md, "### demo") || !strings.Contains(md, "| n ") {
		t.Fatalf("markdown:\n%s", md)
	}
	if !strings.Contains(md, "3.142") {
		t.Fatalf("float formatting missing:\n%s", md)
	}
}
