package gen

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/dyn"
	"repro/internal/graph"
	"repro/internal/phy"
	"repro/internal/xrand"
)

// ClassNames lists the static graph classes ByName understands.
var ClassNames = []string{
	"path", "cycle", "clique", "star", "grid", "tree", "gnp", "udg",
	"quasiudg", "grn", "cliquechain", "lollipop", "hypercube", "regular",
}

// DynClassNames lists the dynamic-topology specs ScheduleByName understands:
// "churn:<class>" and "fault:<class>" wrap any static class in node-churn or
// edge-fault epochs, and "mobile:udg" is random-waypoint mobility.
var DynClassNames = []string{"churn:<class>", "fault:<class>", "mobile:udg"}

// PhyClassNames lists the physical-layer specs the grammar understands:
// "phy:sinr" is a connected-UDG deployment run under SINR reception
// (DESIGN.md §7) and "phy:cd:<class>" runs any static class under the
// collision-detection model. There is deliberately no "phy:collision:…"
// spelling — the bare class name IS the collision model, and one scenario
// must have one canonical form (the serve content hash depends on it).
var PhyClassNames = []string{"phy:sinr", "phy:cd:<class>"}

// ByName builds a graph of roughly n nodes from a named class, used by the
// CLIs and examples. Randomized classes derive their randomness from seed.
// Dynamic specs ("churn:grid", "fault:gnp", "mobile:udg") are accepted too
// and yield the epoch-0 skeleton — the underlying static class — so static
// consumers keep working; ScheduleByName builds the full epoch schedule.
// Physical-layer specs likewise yield their skeleton: "phy:cd:<class>" is
// the class itself and "phy:sinr" is the deployment's default-range
// connectivity graph (ByNameWithPoints also returns the positions a SINR
// model needs).
func ByName(name string, n int, seed uint64) (*graph.Graph, error) {
	g, _, err := ByNameWithPoints(name, n, seed)
	return g, err
}

// ByNameWithPoints is ByName for callers that also need the deployment
// geometry: for the geometric classes with a canonical placement ("udg",
// "phy:sinr") it returns the drawn positions alongside the graph; for every
// other spec points is nil. The graph is identical to ByName's for the same
// (name, n, seed).
func ByNameWithPoints(name string, n int, seed uint64) (*graph.Graph, []Point, error) {
	if n < 1 {
		return nil, nil, fmt.Errorf("gen: need n ≥ 1, got %d", n)
	}
	if kind, class, ok := splitDynSpec(name); ok {
		if err := validateDynSpec(name, kind, class); err != nil {
			return nil, nil, err
		}
		if kind == "mobile" {
			// The mobile classes have their own placement convention, so
			// the skeleton must come from the schedule itself: a zero-epoch
			// build shares the initial point draw with every full build of
			// the same seed (motion parameters don't touch it).
			sched, err := ScheduleByName(name, n, 0, 1, 0, seed)
			if err != nil {
				return nil, nil, err
			}
			return sched.CSR(0).Graph(), sched.PositionsAt(0), nil
		}
		if kind == "phy" {
			if class == "sinr" {
				// The SINR deployment convention: a connected unit-range UDG
				// at average degree ~8 (connectivity-scaled for huge n, see
				// UDGDegTarget), like the "udg" class but with the points
				// retained for the reception model. The unit disk is the
				// decode range of the default phy.SINRParams; runners with
				// non-default params derive their own connectivity view from
				// the points (SINRConnectivity).
				g, pts, err := ConnectedUDG(n, UDGDegTarget(n), 60, xrand.New(seed^0x517cc1b727220a95))
				return g, pts, err
			}
			return ByNameWithPoints(strings.TrimPrefix(class, "cd:"), n, seed)
		}
		g, err := ByName(class, n, seed)
		return g, nil, err
	}
	if name == "udg" {
		g, pts, err := ConnectedUDG(n, UDGDegTarget(n), 60, xrand.New(seed^0x517cc1b727220a95))
		return g, pts, err
	}
	g, err := byStaticName(name, n, seed)
	return g, nil, err
}

// byStaticName builds the bare static classes. "udg" never reaches it —
// ByNameWithPoints intercepts it to retain the deployment points — so it
// has no case here.
func byStaticName(name string, n int, seed uint64) (*graph.Graph, error) {
	rng := xrand.New(seed ^ 0x517cc1b727220a95)
	switch name {
	case "path":
		return Path(n), nil
	case "cycle":
		return Cycle(n), nil
	case "clique":
		return Clique(n), nil
	case "star":
		return Star(n), nil
	case "grid":
		side := int(math.Round(math.Sqrt(float64(n))))
		if side < 1 {
			side = 1
		}
		return Grid(side, side), nil
	case "tree":
		return RandomTree(n, rng), nil
	case "gnp":
		return GNPConnected(n, math.Min(1, 8/float64(n)), 60, rng)
	case "quasiudg":
		side := math.Sqrt(float64(n) * math.Pi / 8)
		for t := 0; t < 60; t++ {
			pts := UniformPoints(n, 2, side, rng)
			g, err := QuasiUDG(pts, 1, 1.5, 0.5, rng)
			if err != nil {
				return nil, err
			}
			if g.Connected() {
				return g, nil
			}
		}
		return nil, fmt.Errorf("gen: no connected quasi-UDG(n=%d) found", n)
	case "grn":
		side := math.Sqrt(float64(n) * math.Pi / 10)
		for t := 0; t < 60; t++ {
			pts := UniformPoints(n, 2, side, rng)
			g, _, err := GeometricRadioNetwork(pts, 1, 1.8, rng)
			if err != nil {
				return nil, err
			}
			if g.Connected() {
				return g, nil
			}
		}
		return nil, fmt.Errorf("gen: no connected GRN(n=%d) found", n)
	case "cliquechain":
		k := int(math.Round(math.Sqrt(float64(n))))
		if k < 2 {
			k = 2
		}
		return CliqueChain(k, (n+k-1)/k), nil
	case "hypercube":
		d := 1
		for 1<<uint(d) < n {
			d++
		}
		return Hypercube(d), nil
	case "regular":
		if n%2 != 0 {
			n++
		}
		return RandomRegular(n, 4, 300, rng)
	case "lollipop":
		head := n / 2
		if head < 2 {
			head = 2
		}
		return Lollipop(head, n-head), nil
	default:
		return nil, fmt.Errorf("gen: unknown graph class %q (known: %v)", name, ClassNames)
	}
}

// ScheduleByName builds a dynamic-topology schedule from a "<kind>:<class>"
// spec: "churn:<class>" takes nodes down per epoch with probability rate,
// "fault:<class>" fails edges per epoch with probability rate, and
// "mobile:udg" moves nodes rate radio-ranges per epoch under random-waypoint
// mobility. epochs counts the mutated epochs after the pristine epoch 0 and
// epochLen is each epoch's length in time-steps; rate <= 0 selects the
// default 0.15. Like ByName, the result is a pure function of the
// arguments. A bare static class name is accepted and yields a single-epoch
// (static) schedule, so callers can treat every spec uniformly; so are the
// physical-layer specs, whose schedules are static too — "phy:sinr"
// additionally carries the deployment positions, so the schedule can feed a
// mobile-capable SINR model (phy.PositionSource).
func ScheduleByName(spec string, n, epochs, epochLen int, rate float64, seed uint64) (*dyn.Schedule, error) {
	if rate <= 0 {
		rate = DefaultDynRate
	}
	rng := xrand.New(seed ^ scheduleSeedMix)
	kind, class, ok := splitDynSpec(spec)
	if !ok {
		base, err := ByName(spec, n, seed)
		if err != nil {
			return nil, err
		}
		return dyn.New(base, nil)
	}
	if err := validateDynSpec(spec, kind, class); err != nil {
		return nil, err
	}
	if kind == "phy" {
		if epochLen < 1 {
			epochLen = 1
		}
		base, pts, err := ByNameWithPoints(spec, n, seed)
		if err != nil {
			return nil, err
		}
		if pts == nil {
			return dyn.New(base, nil)
		}
		return dyn.FromGraphsWithPositions(epochLen, []*graph.Graph{base}, [][]phy.Point{pts})
	}
	if err := ValidateRate(kind, rate); err != nil {
		return nil, err
	}
	if kind == "mobile" {
		return MobileUDG(n, epochs, epochLen, rate, rng)
	}
	base, err := ByName(class, n, seed)
	if err != nil {
		return nil, err
	}
	switch kind {
	case "churn":
		return dyn.Churn(base, epochs, epochLen, rate, rng)
	default: // "fault"
		return dyn.EdgeFaults(base, epochs, epochLen, rate, rng)
	}
}

// scheduleSeedMix separates a schedule's random stream from the graph
// draw's, which uses seed itself.
const scheduleSeedMix = 0xd1a2b3c4d5e6f708

// ScheduleGrower returns ScheduleByName's generator for a churn: or fault:
// spec as a dyn.Grower: Upto(epochs) is ScheduleByName(spec, n, epochs,
// epochLen, rate, seed) for every epochs ≥ 0. Other specs have no grower,
// and the result is (nil, nil).
func ScheduleGrower(spec string, n, epochLen int, rate float64, seed uint64) (*dyn.Grower, error) {
	kind, class, ok := splitDynSpec(spec)
	if !ok || (kind != "churn" && kind != "fault") {
		return nil, nil
	}
	if rate <= 0 {
		rate = DefaultDynRate
	}
	if err := validateDynSpec(spec, kind, class); err != nil {
		return nil, err
	}
	if err := ValidateRate(kind, rate); err != nil {
		return nil, err
	}
	base, err := ByName(class, n, seed)
	if err != nil {
		return nil, err
	}
	rng := xrand.New(seed ^ scheduleSeedMix)
	if kind == "churn" {
		return dyn.NewChurn(base, epochLen, rate, rng)
	}
	return dyn.NewEdgeFaults(base, epochLen, rate, rng)
}

// DefaultDynRate is the rate ScheduleByName substitutes for rate ≤ 0 —
// exported so canonicalizing callers (the serve subsystem) make the same
// default explicit instead of hard-coding a copy that could drift.
const DefaultDynRate = 0.15

// SplitSpec splits a "<kind>:<class>" dynamic spec into its kind and
// underlying class; dynamic is false for bare static class names. It is
// the exported face of the spec grammar so callers (the serve subsystem,
// the CLIs) can classify specs without re-parsing.
func SplitSpec(name string) (kind, class string, dynamic bool) {
	return splitDynSpec(name)
}

// ValidateRate checks a dynamic-spec rate: churn/fault rates are
// per-epoch probabilities (≤ 1; ≤ 0 selects DefaultDynRate before this
// check), while mobile's rate is a speed in radio-ranges per epoch and
// may exceed 1. Every rate must be finite.
func ValidateRate(kind string, rate float64) error {
	if math.IsNaN(rate) || math.IsInf(rate, 0) {
		return fmt.Errorf("gen: %s rate %v must be finite", kind, rate)
	}
	if kind != "mobile" && rate > 1 {
		return fmt.Errorf("gen: %s rate %v out of range (0, 1]", kind, rate)
	}
	return nil
}

// ValidateSpec checks that name is a well-formed graph spec — a known
// static class, or a known dynamic or physical-layer kind wrapping one —
// without building anything. It returns exactly the error
// ByName/ScheduleByName would, so servers can reject malformed specs up
// front with a clean client error.
func ValidateSpec(name string) error {
	if kind, class, ok := splitDynSpec(name); ok {
		if err := validateDynSpec(name, kind, class); err != nil {
			return err
		}
		if kind == "mobile" || name == "phy:sinr" {
			return nil
		}
		if kind == "phy" {
			return ValidateSpec(strings.TrimPrefix(class, "cd:"))
		}
		return ValidateSpec(class)
	}
	for _, c := range ClassNames {
		if name == c {
			return nil
		}
	}
	return fmt.Errorf("gen: unknown graph class %q (known: %v)", name, ClassNames)
}

// SplitPhySpec splits a physical-layer spec: "phy:sinr" yields
// ("sinr", "udg"), "phy:cd:<class>" yields ("cd", class). ok is false for
// everything else, including malformed phy: specs — callers branching on
// it validate separately.
func SplitPhySpec(name string) (model, class string, ok bool) {
	kind, rest, cut := strings.Cut(name, ":")
	if !cut || kind != "phy" {
		return "", "", false
	}
	if rest == "sinr" {
		return "sinr", "udg", true
	}
	if c, isCD := strings.CutPrefix(rest, "cd:"); isCD && validateDynSpec(name, "phy", rest) == nil {
		return "cd", c, true
	}
	return "", "", false
}

// validateDynSpec checks a split dynamic or phy spec's kind and shape.
// Nested specs ("churn:churn:grid", "phy:cd:churn:grid") are rejected
// everywhere: they would execute identically to (or be indistinguishable
// from) another spelling but serialize — and content-hash — differently,
// breaking one-canonical-form-per-scenario.
func validateDynSpec(spec, kind, class string) error {
	if err := validateDynKind(kind); err != nil {
		return err
	}
	switch kind {
	case "mobile":
		if class != "udg" {
			return fmt.Errorf("gen: mobility spec %q: only mobile:udg is supported", spec)
		}
		return nil
	case "phy":
		if class == "sinr" {
			return nil
		}
		if cdClass, ok := strings.CutPrefix(class, "cd:"); ok {
			if strings.Contains(cdClass, ":") {
				return fmt.Errorf("gen: nested phy spec %q: phy:cd must wrap a static class", spec)
			}
			return nil
		}
		return fmt.Errorf("gen: unknown phy spec %q (known: %v; the collision model is the bare class name)", spec, PhyClassNames)
	}
	if strings.Contains(class, ":") {
		return fmt.Errorf("gen: nested dynamic spec %q: %s must wrap a static class", spec, kind)
	}
	return nil
}

// splitDynSpec splits "<kind>:<class>" dynamic specs; ok is false for bare
// static class names.
func splitDynSpec(name string) (kind, class string, ok bool) {
	kind, class, ok = strings.Cut(name, ":")
	return kind, class, ok
}

// validateDynKind rejects unknown dynamic-spec kinds.
func validateDynKind(kind string) error {
	switch kind {
	case "churn", "fault", "mobile", "phy":
		return nil
	default:
		return fmt.Errorf("gen: unknown dynamic kind %q (known: %v and %v)", kind, DynClassNames, PhyClassNames)
	}
}
