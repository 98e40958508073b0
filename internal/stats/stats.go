// Package stats provides the small statistics toolkit the experiment
// harness uses: summary statistics, least-squares fits on transformed axes
// (for scaling-exponent estimation), and Markdown table rendering.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Mean returns the arithmetic mean (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the sample standard deviation (0 for fewer than 2 points).
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)-1))
}

// Quantile returns the q-th quantile (linear interpolation, q clamped to
// [0,1]; 0 for empty input).
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Min returns the minimum (0 for empty input).
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum (0 for empty input).
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Summary bundles the aggregate statistics the experiment runner reports
// for a metric over seed replicas.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	// CI95Lo/CI95Hi bound the mean's normal-approximation 95% confidence
	// interval, mean ± 1.96·s/√n (degenerate to the mean for n < 2).
	CI95Lo float64
	CI95Hi float64
}

// Summarize computes a Summary over xs (zero Summary for empty input).
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs), Mean: Mean(xs), StdDev: StdDev(xs)}
	s.CI95Lo, s.CI95Hi = CI95(xs)
	return s
}

// CI95 returns the normal-approximation 95% confidence interval for the
// mean, mean ± 1.96·s/√n. It consumes no randomness, so aggregated
// experiment output stays deterministic.
func CI95(xs []float64) (lo, hi float64) {
	m := Mean(xs)
	if len(xs) < 2 {
		return m, m
	}
	half := 1.96 * StdDev(xs) / math.Sqrt(float64(len(xs)))
	return m - half, m + half
}

// Fit is a least-squares line y = Slope·x + Intercept with goodness R².
type Fit struct {
	Slope     float64
	Intercept float64
	R2        float64
}

// LinearFit fits y against x by ordinary least squares. It returns an error
// for mismatched or degenerate inputs.
func LinearFit(x, y []float64) (Fit, error) {
	if len(x) != len(y) {
		return Fit{}, fmt.Errorf("stats: length mismatch %d vs %d", len(x), len(y))
	}
	if len(x) < 2 {
		return Fit{}, fmt.Errorf("stats: need at least 2 points, got %d", len(x))
	}
	n := float64(len(x))
	var sx, sy, sxx, sxy, syy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
		syy += y[i] * y[i]
	}
	denom := n*sxx - sx*sx
	if denom == 0 {
		return Fit{}, fmt.Errorf("stats: degenerate x values")
	}
	f := Fit{}
	f.Slope = (n*sxy - sx*sy) / denom
	f.Intercept = (sy - f.Slope*sx) / n
	ssTot := syy - sy*sy/n
	if ssTot == 0 {
		f.R2 = 1
	} else {
		var ssRes float64
		for i := range x {
			r := y[i] - (f.Slope*x[i] + f.Intercept)
			ssRes += r * r
		}
		f.R2 = 1 - ssRes/ssTot
	}
	return f, nil
}

// PowerLawExponent fits y ≈ c·x^e by regressing log y on log x and returns
// e. Non-positive samples are skipped; an error is returned if fewer than 2
// usable points remain.
func PowerLawExponent(x, y []float64) (float64, error) {
	var lx, ly []float64
	for i := range x {
		if i < len(y) && x[i] > 0 && y[i] > 0 {
			lx = append(lx, math.Log(x[i]))
			ly = append(ly, math.Log(y[i]))
		}
	}
	f, err := LinearFit(lx, ly)
	if err != nil {
		return 0, err
	}
	return f.Slope, nil
}

// Table renders aligned rows for experiment output as Markdown; the
// exported fields double as the structured-JSON form of a table
// (`radionet-bench -json`).
type Table struct {
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
}

// AddRow appends a row of stringified cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// AddRowf appends a row formatting each value with %v (floats via %.4g).
func (t *Table) AddRowf(values ...any) {
	cells := make([]string, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case float64:
			cells[i] = fmt.Sprintf("%.4g", x)
		case float32:
			cells[i] = fmt.Sprintf("%.4g", x)
		default:
			cells[i] = fmt.Sprintf("%v", v)
		}
	}
	t.Rows = append(t.Rows, cells)
}

// Markdown renders the table as GitHub-flavored Markdown.
func (t *Table) Markdown() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "### %s\n\n", t.Title)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		b.WriteString("|")
		for i := range t.Header {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			fmt.Fprintf(&b, " %-*s |", widths[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(t.Header)
	b.WriteString("|")
	for i := range t.Header {
		b.WriteString(strings.Repeat("-", widths[i]+2) + "|")
	}
	b.WriteString("\n")
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}
