package phy

// The SINR reception model — footnote 1's geometric alternative to the
// graph abstraction. A listener v decodes transmitter u iff
//
//	P_u·d(u,v)^-α / (Noise + Σ_{w transmitting, w≠u} P_w·d(w,v)^-α) ≥ Beta.
//
// For Beta ≥ 1 at most one transmitter can clear the threshold, so delivery
// is unambiguous. Transmitters hear nothing (half-duplex, as in the graph
// model).
//
// The implementation is batch-oriented (DESIGN.md §7): node positions and
// powers live in structure-of-arrays form (flat xs/ys/pw float64 slices,
// uint32 ids in the kernel arrays), positions are bucketed into a uniform
// grid with cell size equal to the largest decode range, and each step
// resolves receiver-bucket by receiver-bucket — a CSR-style candidate table
// maps every bucket to the transmitters within the far-field cutoff ring,
// built in ascending transmitter order, and one fused pass per bucket
// accumulates interference and applies the threshold with per-listener
// state held in registers. Per-step cost is O(#tx · nodes-within-cutoff),
// near-sparse on spread-out deployments, and the scratch is arena-style
// per-epoch buffers so the step loop performs zero heap allocations.
//
// Bit-exactness is a hard constraint, not a nicety: every kernel
// accumulates each listener's interference in ascending transmitter order
// with the exact arithmetic of the pre-batch code (Dist's summation order,
// math.Pow's rounding — see pow.go — and the d==0 clamp), so the float
// sums, and hence every decode decision, are identical whether the step ran
// through the batched kernels, the per-transmitter fallback sweep, or the
// dense exact-mode loop. That is what keeps the committed golden digests
// and the old-vs-new reference differential valid across this layout
// change.
//
// The far-field cutoff is the one deliberate approximation: interference
// from transmitters farther than CutoffFactor decode ranges is dropped. A
// neglected transmitter contributes at most Beta·Noise/CutoffFactor^PathLoss
// (1/256 of the noise floor at the defaults), which only matters for
// listeners already on the decode boundary. CutoffFactor = +Inf disables
// the cutoff entirely and reproduces the old exact loop bit for bit — the
// mode the cross-model validation experiment (E13) and the old-vs-new
// differential tests run in.

import (
	"fmt"
	"math"

	"repro/internal/graph"
)

// DefaultCutoffFactor is the far-field cutoff, in multiples of the largest
// decode range, substituted when SINRParams.CutoffFactor is zero.
const DefaultCutoffFactor = 4

// SINRParams are the physical-layer parameters of the SINR model. The zero
// value of every field means "default"; WithDefaults resolves them. Noise
// is the one field whose zero is a meaningful physical value (a noiseless
// channel), so it carries an explicit NoiseSet bit instead of a zero
// sentinel.
type SINRParams struct {
	// Power is the uniform transmission power P > 0. Default 1.
	Power float64
	// Powers, when non-nil, gives heterogeneous per-node transmission
	// powers (length n, all > 0), overriding Power.
	Powers []float64
	// PathLoss is the path-loss exponent α > 0 (typically 2–6). Default 4 —
	// path-loss exponents >2 model near-ground propagation.
	PathLoss float64
	// Noise is the ambient noise floor N ≥ 0. Meaningful only when NoiseSet
	// is true; the default (NoiseSet false) is chosen so the decode range
	// at zero interference is exactly 1 (the unit disk): N = Power/Beta.
	// An explicit zero (NoiseSet true, Noise 0) is a noiseless channel with
	// unbounded decode range — representable, unlike in the old
	// sinr.Params, whose Noise==0 always meant "unset".
	Noise    float64
	NoiseSet bool
	// Beta is the SINR decode threshold β ≥ 1. Default 2.
	Beta float64
	// CutoffFactor is the far-field interference cutoff in multiples of the
	// largest decode range. Zero selects DefaultCutoffFactor; +Inf disables
	// truncation (exact interference sums, O(#tx·n) worst case).
	CutoffFactor float64
}

// WithDefaults resolves zero fields to their defaults. The returned params
// have NoiseSet true, so defaults made explicit survive re-resolution.
func (p SINRParams) WithDefaults() SINRParams {
	if p.Power <= 0 {
		p.Power = 1
	}
	if p.PathLoss <= 0 {
		p.PathLoss = 4
	}
	if p.Beta <= 0 {
		p.Beta = 2
	}
	if !p.NoiseSet {
		// Decode range 1 at zero interference: P·1^-α / N = β.
		p.Noise = p.Power / p.Beta
		p.NoiseSet = true
	}
	if p.CutoffFactor == 0 {
		p.CutoffFactor = DefaultCutoffFactor
	}
	return p
}

// Validate checks resolved params (call WithDefaults first or use explicit
// values throughout).
func (p SINRParams) Validate() error {
	if math.IsNaN(p.Power) || math.IsInf(p.Power, 0) || p.Power <= 0 {
		return fmt.Errorf("phy: Power %v must be positive and finite", p.Power)
	}
	if math.IsNaN(p.PathLoss) || math.IsInf(p.PathLoss, 0) || p.PathLoss <= 0 {
		return fmt.Errorf("phy: PathLoss %v must be positive and finite", p.PathLoss)
	}
	if p.Beta < 1 || math.IsNaN(p.Beta) || math.IsInf(p.Beta, 0) {
		return fmt.Errorf("phy: Beta %v must be ≥ 1 (unambiguous decoding) and finite", p.Beta)
	}
	if p.Noise < 0 || math.IsNaN(p.Noise) || math.IsInf(p.Noise, 0) {
		return fmt.Errorf("phy: Noise %v must be ≥ 0 and finite", p.Noise)
	}
	if p.CutoffFactor < 1 && !math.IsInf(p.CutoffFactor, 1) {
		return fmt.Errorf("phy: CutoffFactor %v must be ≥ 1 or +Inf", p.CutoffFactor)
	}
	for i, pw := range p.Powers {
		if math.IsNaN(pw) || math.IsInf(pw, 0) || pw <= 0 {
			return fmt.Errorf("phy: Powers[%d] = %v must be positive and finite", i, pw)
		}
	}
	return nil
}

// DecodeRange returns the maximum distance at which a lone transmitter at
// the uniform Power is decodable: P·d^-α / N ≥ β ⇔ d ≤ (P/(N·β))^(1/α).
// A noiseless channel (explicit Noise 0) has unbounded range: +Inf.
func (p SINRParams) DecodeRange() float64 {
	p = p.WithDefaults()
	return p.RangeFor(p.Power)
}

// RangeFor returns the decode range of a transmitter with the given power
// under resolved params (+Inf on a noiseless channel).
func (p SINRParams) RangeFor(power float64) float64 {
	if p.Noise == 0 {
		return math.Inf(1)
	}
	return math.Pow(power/(p.Noise*p.Beta), 1/p.PathLoss)
}

// PositionSource supplies per-epoch node positions to a mobile SINR model.
// dyn.Schedule implements it when built with positions attached
// (gen.MobileUDG); PositionsAt must be a pure function of step, like
// radio.Topology's EpochAt.
type PositionSource interface {
	PositionsAt(step int) []Point
}

// SINR is the Model implementation. Build with NewSINR (static positions)
// or NewMobileSINR (positions per epoch from a PositionSource).
type SINR struct {
	params   SINRParams
	src      PositionSource // nil for static runs
	pts      []Point
	maxRange float64 // largest per-node decode range
	cutoff   float64 // absolute far-field cutoff distance (may be +Inf)
	fast4    bool    // PathLoss == 4: the bit-exact fast d^-α path (pow.go)

	// Structure-of-arrays node state, rebuilt per epoch in Sync: positions
	// as flat coordinate slices (soa is false when the deployment is not
	// 2-D, forcing the generic Point fallback) and resolved per-node powers.
	xs, ys []float64
	pw     []float64
	soa    bool

	// Uniform grid over the epoch's positions: cellNodes holds node ids
	// bucketed by cell in CSR layout, nodeCell the inverse map. dense is
	// the fallback (non-2D points, unbounded range, infinite cutoff) that
	// sweeps every listener against every transmitter.
	dense      bool
	cellSize   float64
	cols, rows int
	minX, minY float64
	cellStart  []int32
	cellNodes  []uint32
	nodeCell   []int32

	// Ring geometry, fixed per epoch: rc is the ring radius in cells
	// (⌈cutoff/cellSize⌉, ≤ 3 by construction), thr the squared-distance
	// prune threshold cutoff²·(1+1e-9). hier enables the two-level ring
	// prune (coarse hierBlock-cell blocks rejected before their fine cells
	// are tested); hierOff is the test hook that forces it off so the
	// differential and fuzz tests can compare the two prunes bit for bit.
	// ringBuf is the per-call surviving-cell list (capacity for the largest
	// possible ring, so the step loop never grows it).
	rc      int32
	thr     float64
	hier    bool
	hierOff bool
	ringBuf []int32

	// Per-step candidate table for the bucketed kernel (all-zero between
	// steps): candU[candStart[c]-candCnt[c]:candStart[c]] lists, ascending,
	// the transmitters whose cutoff ring covers receiver cell c; rcCells
	// tracks the cells dirtied this step. candU's length is the arena
	// budget — a step whose rings overflow it resolves through the
	// per-transmitter fallback sweep instead of allocating.
	candU     []uint32
	candCnt   []int32
	candStart []int32
	rcCells   []int32

	// Fallback-sweep scratch (all-zero between steps, cleared via touched).
	acc      []float64 // total received power per touched listener
	bestPow  []float64 // strongest single signal per touched listener
	bestFrom []int32   // its transmitter (valid when seen)
	seen     []bool
	touched  []int32

	// Load statistics for the StatsSource interface: plain fields, bumped
	// inline in the kernels (one compare + at most two stores per step) and
	// read only at epoch boundaries by the engine's probe.
	arenaHighWater int
	fallbackSweeps uint64
}

// NewSINR builds the SINR model over static positions. params defaults are
// resolved; the points must be non-empty and share one dimension.
func NewSINR(pts []Point, params SINRParams) (*SINR, error) {
	s, err := newSINR(params)
	if err != nil {
		return nil, err
	}
	if len(pts) == 0 {
		return nil, fmt.Errorf("phy: no points")
	}
	s.pts = pts
	return s, nil
}

// NewMobileSINR builds a SINR model whose positions come from src at every
// topology epoch — the mobile-deployment variant. The engine's Sync calls
// feed it the epoch boundaries.
func NewMobileSINR(src PositionSource, params SINRParams) (*SINR, error) {
	s, err := newSINR(params)
	if err != nil {
		return nil, err
	}
	if src == nil {
		return nil, fmt.Errorf("phy: nil position source")
	}
	s.src = src
	return s, nil
}

func newSINR(params SINRParams) (*SINR, error) {
	params = params.WithDefaults()
	if err := params.Validate(); err != nil {
		return nil, err
	}
	return &SINR{params: params}, nil
}

// Params returns the resolved parameters.
func (s *SINR) Params() SINRParams { return s.params }

// Name implements Model.
func (s *SINR) Name() string { return "sinr" }

// Sync implements Model: fetch the epoch's positions (mobile runs), rebuild
// the structure-of-arrays state and the grid buckets, and size the arenas.
// Runs once per epoch, never per step, so the allocations here stay off the
// hot path.
func (s *SINR) Sync(step int, csr *graph.CSR) error {
	if s.src != nil {
		s.pts = s.src.PositionsAt(step)
		if s.pts == nil {
			return fmt.Errorf("phy: position source has no positions at step %d (build the schedule with positions attached)", step)
		}
	}
	n := csr.N()
	if len(s.pts) != n {
		return fmt.Errorf("phy: %d positions for %d nodes", len(s.pts), n)
	}
	if s.params.Powers != nil && len(s.params.Powers) != n {
		return fmt.Errorf("phy: %d per-node powers for %d nodes", len(s.params.Powers), n)
	}
	s.fast4 = s.params.pow4()
	// Positions into SoA form; powers resolved per node so the kernels
	// never branch on the uniform-vs-heterogeneous distinction.
	s.xs, s.ys, s.soa = splitXYInto(s.pts, s.xs, s.ys)
	s.pw = grow(s.pw, n)
	if s.params.Powers != nil {
		copy(s.pw, s.params.Powers)
	} else {
		for i := range s.pw {
			s.pw[i] = s.params.Power
		}
	}
	// Fallback-sweep scratch, all-zero between steps.
	if len(s.acc) < n {
		s.acc = make([]float64, n)
		s.bestPow = make([]float64, n)
		s.bestFrom = make([]int32, n)
		s.seen = make([]bool, n)
		s.touched = make([]int32, 0, n)
	}
	s.maxRange = s.params.RangeFor(s.params.Power)
	if s.params.Powers != nil {
		s.maxRange = 0
		for _, pw := range s.params.Powers {
			if r := s.params.RangeFor(pw); r > s.maxRange {
				s.maxRange = r
			}
		}
	}
	s.cutoff = s.params.CutoffFactor * s.maxRange
	s.buildGrid()
	return nil
}

// SplitXY converts a 2-D deployment to structure-of-arrays coordinate
// slices. ok is false (and the slices nil) when any point is not 2-D —
// callers fall back to the generic Point path. This is the shared SoA
// handoff between the generators and the reception kernels: gen's bucketed
// graph builders and the SINR model split the same way, so the two layers
// agree on which deployments take the flat-slice fast paths.
func SplitXY(pts []Point) (xs, ys []float64, ok bool) {
	return splitXYInto(pts, nil, nil)
}

// splitXYInto is SplitXY reusing caller-owned arena buffers.
func splitXYInto(pts []Point, xbuf, ybuf []float64) (xs, ys []float64, ok bool) {
	for _, p := range pts {
		if len(p) != 2 {
			return nil, nil, false
		}
	}
	xs = grow(xbuf, len(pts))
	ys = grow(ybuf, len(pts))
	for i, p := range pts {
		xs[i], ys[i] = p[0], p[1]
	}
	return xs, ys, true
}

// buildGrid buckets the positions into a uniform grid with cell size equal
// to the largest decode range (so one cell ring covers a decode disk), or
// falls back to a dense sweep when the geometry does not bucket: unbounded
// decode range (noiseless channel), an infinite cutoff (exact-interference
// mode sums every transmitter at every listener by definition), or non-2D
// points.
func (s *SINR) buildGrid() {
	s.dense = true
	if math.IsInf(s.maxRange, 1) || s.maxRange <= 0 || math.IsInf(s.cutoff, 1) || !s.soa {
		return
	}
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for i := range s.xs {
		minX, maxX = math.Min(minX, s.xs[i]), math.Max(maxX, s.xs[i])
		minY, maxY = math.Min(minY, s.ys[i]), math.Max(maxY, s.ys[i])
	}
	// Cell size cutoff/3 balances the two per-transmitter costs: the ring
	// sweep touches (2·ceil(cutoff/cs)+1)² cells (shrinks with bigger
	// cells) while the pair tests cover the ring's area (approaches the
	// cutoff disk with smaller cells). rc=3 keeps the ring at 7×7 = 49
	// cells for ~8% more area than the rc=4 ring — measured fastest on the
	// bench deployments. Correctness never depends on the choice: the
	// kernels derive the ring radius from cellSize, and accumulation order
	// is per-listener ascending regardless of geometry.
	cs := s.cutoff / 3
	cols := int((maxX-minX)/cs) + 1
	rows := int((maxY-minY)/cs) + 1
	// Bound the grid to O(n) cells: very spread-out deployments would
	// otherwise allocate a table dominated by empty cells.
	if limit := 4*len(s.pts) + 16; cols*rows > limit {
		scale := math.Sqrt(float64(cols*rows) / float64(limit))
		cs *= scale
		cols = int((maxX-minX)/cs) + 1
		rows = int((maxY-minY)/cs) + 1
	}
	s.dense = false
	s.cellSize, s.cols, s.rows, s.minX, s.minY = cs, cols, rows, minX, minY
	s.rc = int32(math.Ceil(s.cutoff / cs))
	s.thr = s.cutoff * s.cutoff * (1 + 1e-9)
	// The coarse-block prune only pays for itself when a ring spans more
	// than one block per axis; at rc = 1 (heavily coarsened grids) the ring
	// is already 3×3 and the hierarchy would be pure overhead.
	s.hier = s.rc >= 2 && !s.hierOff
	if s.ringBuf == nil {
		s.ringBuf = make([]int32, 0, (2*maxRingRC+1)*(2*maxRingRC+1))
	}
	cells := cols * rows
	n := len(s.pts)
	s.cellStart = grow(s.cellStart, cells+1)
	for i := range s.cellStart {
		s.cellStart[i] = 0
	}
	s.cellNodes = grow(s.cellNodes, n)
	s.nodeCell = grow(s.nodeCell, n)
	// The per-step candidate table: counters and segment cursors per cell
	// (kept all-zero between steps by the bucketed kernel itself) and the
	// flat id arena. The budget bounds the table at 8 ids per node — far
	// above the sparse-frontier steady state; a transmit storm past it
	// resolves through the fallback sweep, never an allocation.
	s.candCnt = grow(s.candCnt, cells)
	s.candStart = grow(s.candStart, cells)
	s.candU = grow(s.candU, max(8*n, 1024))
	if s.rcCells == nil {
		s.rcCells = make([]int32, 0, cells)
	}
	// Counting sort by cell; node order inside each cell stays ascending,
	// keeping every kernel's per-listener accumulation order deterministic.
	for v := 0; v < n; v++ {
		c := s.cellIndexXY(s.xs[v], s.ys[v])
		s.nodeCell[v] = int32(c)
		s.cellStart[c+1]++
	}
	for i := 1; i <= cells; i++ {
		s.cellStart[i] += s.cellStart[i-1]
	}
	cursor := make([]int32, cells)
	copy(cursor, s.cellStart[:cells])
	for v := 0; v < n; v++ {
		c := s.nodeCell[v]
		s.cellNodes[cursor[c]] = uint32(v)
		cursor[c]++
	}
}

// cellIndexXY maps a coordinate pair to its grid cell.
func (s *SINR) cellIndexXY(x, y float64) int {
	cx := int((x - s.minX) / s.cellSize)
	cy := int((y - s.minY) / s.cellSize)
	if cx >= s.cols {
		cx = s.cols - 1
	}
	if cy >= s.rows {
		cy = s.rows - 1
	}
	return cy*s.cols + cx
}

// Resolve implements Model: decide reception for the step's transmitter
// frontier. Dispatch: the dense kernel when the geometry does not bucket,
// otherwise the bucketed batch kernel, overflowing to the per-transmitter
// sweep when a transmit storm outgrows the candidate arena. All three
// accumulate each listener's interference in ascending transmitter order
// with identical arithmetic, so the choice never changes a decision.
func (s *SINR) Resolve(f *Frontier, out *Outcome) {
	if f.Len() == 0 {
		return
	}
	if s.dense {
		s.resolveDense(f, out)
		return
	}
	s.resolveBucketed(f, out)
}

// resolveBucketed is the batch kernel. Three passes over per-cell state:
// count candidate entries per receiver cell (every transmitter's cutoff
// ring, clipped to the grid), turn the counts into CSR segment cursors,
// and fill the segments — iterating transmitters in ascending order both
// times, so each cell's candidate list is ascending by construction. The
// fused per-bucket pass then resolves every listener of every dirtied cell
// with accumulator, best-signal, and best-transmitter state in registers,
// appending decodes and collisions directly; no per-listener scratch is
// written at all.
//
// Both ring passes route through ringCells, which prunes cells whose
// nearest point lies beyond the cutoff from the transmitter (the ring is
// square, the cutoff disk is not — at cell side cutoff/3 the corners are
// ~16% of the ring area), hierarchically when the ring is big enough for
// coarse blocks to pay (see ringCells). The test uses squared distances
// with a 1e-9 relative slack above cutoff², so a pruned cell's every pair
// is beyond the cutoff by margins no rounding in the kernel's distance
// chain (a few ulps) can cross — and the kernels mask (or skip) exactly
// those pairs anyway, so pruning never changes a bit. The two passes
// evaluate the identical float expressions, keeping counts and fills
// consistent.
func (s *SINR) resolveBucketed(f *Frontier, out *Outcome) {
	txs := f.List()
	// Pass 1: count ring entries per receiver cell, tracking dirtied cells.
	total := 0
	for _, u := range txs {
		for _, cell := range s.ringCells(u) {
			if s.candCnt[cell] == 0 {
				s.rcCells = append(s.rcCells, cell)
			}
			s.candCnt[cell]++
			total++
		}
	}
	if total > s.arenaHighWater {
		s.arenaHighWater = total
	}
	if total > len(s.candU) {
		// Transmit storm past the arena budget: undo the counts and resolve
		// through the per-transmitter sweep — same decisions, no allocation.
		s.fallbackSweeps++
		for _, c := range s.rcCells {
			s.candCnt[c] = 0
		}
		s.rcCells = s.rcCells[:0]
		s.resolveSweep(f, out)
		return
	}
	// Pass 2: CSR offsets. candStart[c] walks to the segment end during the
	// fill, so afterwards the segment is candU[candStart[c]-candCnt[c]:candStart[c]].
	off := int32(0)
	for _, c := range s.rcCells {
		s.candStart[c] = off
		off += s.candCnt[c]
	}
	// Pass 3: fill, ascending transmitter order per cell, repeating pass 1's
	// pruning test bit for bit so counts and fills agree.
	for _, u := range txs {
		uu := uint32(u)
		for _, cell := range s.ringCells(u) {
			s.candU[s.candStart[cell]] = uu
			s.candStart[cell]++
		}
	}
	// Fused accumulate+threshold pass, one receiver bucket at a time.
	multi := len(txs) > 1
	noise, beta := s.params.Noise, s.params.Beta
	alpha, fast4 := s.params.PathLoss, s.fast4
	cutoff := s.cutoff
	xs, ys, pw := s.xs, s.ys, s.pw
	// The outcome slices live in registers for the duration of the pass —
	// appending through the pointer would reload the slice header on every
	// listener (the compiler cannot prove out doesn't alias the kernel
	// state).
	dec, col := out.Decoded, out.Collided
	for _, c := range s.rcCells {
		end := s.candStart[c]
		cands := s.candU[end-s.candCnt[c] : end]
		for _, vu := range s.cellNodes[s.cellStart[c]:s.cellStart[c+1]] {
			v := int32(vu)
			if f.Has(v) {
				continue // transmitters hear nothing, including themselves
			}
			xv, yv := xs[v], ys[v]
			var acc, best float64
			bestU := int32(-1)
			if fast4 {
				// The default-α kernel is branchless on the cutoff: whether a
				// candidate is within range is data-dependent and essentially
				// random, so a skip branch would mispredict on roughly half
				// the pairs and stall the pipeline for longer than the d⁻⁴
				// arithmetic it saves. Instead every pair's power is computed
				// (sqrt and divide overlap across iterations — they have no
				// loop-carried dependency) and out-of-range contributions are
				// masked to +0.0, which is exact to add and never wins the
				// best-signal race, so the accumulated bits match the skipping
				// kernels term for term.
				for _, uc := range cands {
					u := int32(uc)
					dx := xs[u] - xv
					dy := ys[u] - yv
					d := math.Sqrt(dx*dx + dy*dy)
					if d == 0 {
						d = 1e-9 // co-located points: effectively infinite power
					}
					q := d * d
					q *= q
					p := pw[u] * (1 / q)
					if d <= 1e-38 || d >= 1e38 {
						// Outside the pow4 bit-identity window (pow.go): defer
						// to math.Pow. Unreachable at sane geometries.
						p = pw[u] * math.Pow(d, -alpha)
					}
					var m uint64
					if d <= cutoff {
						m = ^uint64(0)
					}
					p = math.Float64frombits(math.Float64bits(p) & m)
					acc += p
					if p > best {
						best, bestU = p, u
					}
				}
			} else {
				for _, uc := range cands {
					u := int32(uc)
					dx := xs[u] - xv
					dy := ys[u] - yv
					d := math.Sqrt(dx*dx + dy*dy)
					if d == 0 {
						d = 1e-9
					}
					if d > cutoff {
						continue // skip: math.Pow costs more than a mispredict
					}
					p := pw[u] * math.Pow(d, -alpha)
					acc += p
					if p > best {
						best, bestU = p, u
					}
				}
			}
			// best > 0 iff some transmitter was within the cutoff: every
			// in-range contribution is strictly positive.
			if best == 0 {
				continue
			}
			// Threshold: the contract decision is fl(best/den) ≥ β with den
			// computed exactly as below. The division is the longest-latency
			// op left in the pass and most listeners are nowhere near the
			// threshold, so multiply-form bounds decide everything outside a
			// ±1e-9 relative band — wide enough (≫ the ~2⁻⁵² rounding of the
			// division and the t products) that a listener inside a bound is
			// provably on that side of the exact comparison — and only the
			// sliver inside the band pays the division itself.
			den := noise + (acc - best)
			t := beta * den
			hi := t * (1 + 1e-9)
			lo := t * (1 - 1e-9)
			if t <= 1e-300 {
				// Denormal (or NaN-adjacent) threshold: the relative margins
				// no longer dominate rounding, so every listener takes the
				// exact division. Unreachable at sane noise floors.
				hi, lo = math.Inf(1), -1
			}
			if best >= hi {
				dec = append(dec, Decode{To: v, From: bestU})
			} else if best > lo && best/den >= beta {
				dec = append(dec, Decode{To: v, From: bestU})
			} else if multi {
				// Touched (within the cutoff of some transmitter) but decoded
				// nothing while ≥2 transmitters were active. Single-transmitter
				// steps record no collisions: a lone touched listener either
				// decodes or is simply out of range. See Outcome.Collided for
				// why this stat varies with CutoffFactor.
				col = append(col, v)
			}
		}
		// Re-zero the per-cell table entries this step dirtied.
		s.candCnt[c] = 0
		s.candStart[c] = 0
	}
	s.rcCells = s.rcCells[:0]
	out.Decoded, out.Collided = dec, col
}

// maxRingRC is the largest possible ring radius in cells: the cell side
// starts at cutoff/3 and only ever coarsens, so ⌈cutoff/cellSize⌉ ≤ 3.
const maxRingRC = 3

// hierBlock is the coarse-block side of the two-level ring prune, in fine
// cells: a full 7×7 ring (rc = 3) is covered by 2×2 blocks, so one rejected
// block skips up to 16 fine-cell tests for one coarse test.
const hierBlock = 4

// ringCells returns the fine grid cells of transmitter u's cutoff ring that
// survive the squared point-to-cell-slab distance prune, in row-major
// order, in s.ringBuf's storage (overwritten by the next call). Both
// candidate passes of resolveBucketed route through it, so the counting and
// fill passes evaluate identical float expressions — the invariant that
// keeps the candidate table's counts and segments consistent.
//
// When s.hier is set, coarse blocks of hierBlock columns/rows (anchored at
// the ring origin) are rejected before their fine cells are tested. A
// block's slab distance is computed from the same column/row expressions
// the fine test uses, evaluated at the block's edge columns: the column
// lower edge lo(gx) = fl(minX + fl(gx)·cs) is nondecreasing in gx (fl of a
// monotone chain of +, · on the same operands), so when xu lies left of the
// block every member column's distance fl(lo(gx)−xu) is ≥ the block's
// fl(lo(first)−xu), symmetrically on the right with the upper edges, and 0
// otherwise never overestimates. Squares and the two-axis sum preserve ≤
// under fl, so a rejected block (sum > thr) contains only cells the fine
// test would reject — the returned cell sequence is bit-identical with the
// hierarchy on or off, which the differential and fuzz tests in
// sinrhier_test.go pin.
func (s *SINR) ringCells(u int32) []int32 {
	cols, rows := int32(s.cols), int32(s.rows)
	rc := s.rc
	cs, thr := s.cellSize, s.thr
	c := s.nodeCell[u]
	cx, cy := c%cols, c/cols
	gx0, gx1 := max(cx-rc, 0), min(cx+rc, cols-1)
	gy0, gy1 := max(cy-rc, 0), min(cy+rc, rows-1)
	xu, yu := s.xs[u], s.ys[u]
	// Per-axis squared point-to-cell-slab distances; the span is at most
	// 2·maxRingRC+1 = 7.
	var dx2, dy2 [2*maxRingRC + 2]float64
	for gx := gx0; gx <= gx1; gx++ {
		lo := s.minX + float64(gx)*cs
		d := 0.0
		if xu < lo {
			d = lo - xu
		} else if hi := lo + cs; xu > hi {
			d = xu - hi
		}
		dx2[gx-gx0] = d * d
	}
	for gy := gy0; gy <= gy1; gy++ {
		lo := s.minY + float64(gy)*cs
		d := 0.0
		if yu < lo {
			d = lo - yu
		} else if hi := lo + cs; yu > hi {
			d = yu - hi
		}
		dy2[gy-gy0] = d * d
	}
	out := s.ringBuf[:0]
	if !s.hier {
		for gy := gy0; gy <= gy1; gy++ {
			base := gy * cols
			dy := dy2[gy-gy0]
			for gx := gx0; gx <= gx1; gx++ {
				if dx2[gx-gx0]+dy > thr {
					continue
				}
				out = append(out, base+gx)
			}
		}
		return out
	}
	// Coarse pass: per-axis slab distances for blocks of hierBlock fine
	// cells. A ≤7-cell span is at most 2 blocks per axis.
	var bdx2, bdy2 [2]float64
	nbx := (gx1-gx0)/hierBlock + 1
	nby := (gy1-gy0)/hierBlock + 1
	for bi := int32(0); bi < nbx; bi++ {
		xa := gx0 + bi*hierBlock
		xb := min(xa+hierBlock-1, gx1)
		lo := s.minX + float64(xa)*cs
		loB := s.minX + float64(xb)*cs
		d := 0.0
		if xu < lo {
			d = lo - xu
		} else if hi := loB + cs; xu > hi {
			d = xu - hi
		}
		bdx2[bi] = d * d
	}
	for bj := int32(0); bj < nby; bj++ {
		ya := gy0 + bj*hierBlock
		yb := min(ya+hierBlock-1, gy1)
		lo := s.minY + float64(ya)*cs
		loB := s.minY + float64(yb)*cs
		d := 0.0
		if yu < lo {
			d = lo - yu
		} else if hi := loB + cs; yu > hi {
			d = yu - hi
		}
		bdy2[bj] = d * d
	}
	for gy := gy0; gy <= gy1; gy++ {
		base := gy * cols
		dy := dy2[gy-gy0]
		bdy := bdy2[(gy-gy0)/hierBlock]
		for bi := int32(0); bi < nbx; bi++ {
			if bdx2[bi]+bdy > thr {
				continue // whole block beyond the cutoff
			}
			xa := gx0 + bi*hierBlock
			xb := min(xa+hierBlock-1, gx1)
			for gx := xa; gx <= xb; gx++ {
				if dx2[gx-gx0]+dy > thr {
					continue
				}
				out = append(out, base+gx)
			}
		}
	}
	return out
}

// resolveDense is the no-grid kernel: every listener against every
// transmitter, ascending — exact mode (+Inf cutoff), noiseless channels,
// and non-2D deployments. The 2-D variant runs over the SoA slices with the
// same fused register accumulation as the bucketed kernel; other dimensions
// take the generic Point path.
func (s *SINR) resolveDense(f *Frontier, out *Outcome) {
	txs := f.List()
	multi := len(txs) > 1
	noise, beta := s.params.Noise, s.params.Beta
	alpha, fast4 := s.params.PathLoss, s.fast4
	cutoff := s.cutoff // may be +Inf (never skips) or finite (non-2D fallback)
	n := len(s.pts)
	if s.soa {
		xs, ys, pw := s.xs, s.ys, s.pw
		for v := 0; v < n; v++ {
			if f.Has(int32(v)) {
				continue
			}
			xv, yv := xs[v], ys[v]
			var acc, best float64
			bestU := int32(-1)
			hit := false
			for _, u := range txs {
				dx := xs[u] - xv
				dy := ys[u] - yv
				d := math.Sqrt(dx*dx + dy*dy)
				if d == 0 {
					d = 1e-9
				}
				if d > cutoff {
					continue
				}
				var p float64 // recvPow, manually inlined
				if fast4 && d > 1e-38 && d < 1e38 {
					q := d * d
					q *= q
					p = pw[u] * (1 / q)
				} else {
					p = pw[u] * math.Pow(d, -alpha)
				}
				acc += p
				if p > best {
					best, bestU = p, u
				}
				hit = true
			}
			s.emit(out, int32(v), acc, best, bestU, hit, multi, noise, beta)
		}
		return
	}
	for v := 0; v < n; v++ {
		if f.Has(int32(v)) {
			continue
		}
		pv := s.pts[v]
		var acc, best float64
		bestU := int32(-1)
		hit := false
		for _, u := range txs {
			d := s.pts[u].Dist(pv)
			if d == 0 {
				d = 1e-9
			}
			if d > cutoff {
				continue
			}
			p := recvPow(s.pw[u], d, alpha, fast4)
			acc += p
			if p > best {
				best, bestU = p, u
			}
			hit = true
		}
		s.emit(out, int32(v), acc, best, bestU, hit, multi, noise, beta)
	}
}

// emit applies the threshold test for one listener's accumulated step.
func (s *SINR) emit(out *Outcome, v int32, acc, best float64, bestU int32, hit, multi bool, noise, beta float64) {
	if !hit {
		return
	}
	if best/(noise+(acc-best)) >= beta {
		out.Decoded = append(out.Decoded, Decode{To: v, From: bestU})
	} else if multi {
		out.Collided = append(out.Collided, v)
	}
}

// resolveSweep is the pre-batch per-transmitter path, kept as the overflow
// fallback for steps whose cutoff rings outgrow the candidate arena: each
// transmitter's ring is swept in ascending transmitter order, listeners
// accumulate in the per-node scratch arrays, and a final pass over the
// touched set applies the threshold. Decision-identical to the bucketed
// kernel (same per-listener accumulation order and arithmetic), differing
// only in the order listeners are appended to the outcome.
func (s *SINR) resolveSweep(f *Frontier, out *Outcome) {
	for _, u := range f.List() {
		s.sweep(f, u)
	}
	multi := f.Len() > 1
	noise := s.params.Noise
	beta := s.params.Beta
	for _, v := range s.touched {
		bp := s.bestPow[v]
		if bp/(noise+(s.acc[v]-bp)) >= beta {
			out.Decoded = append(out.Decoded, Decode{To: v, From: s.bestFrom[v]})
		} else if multi && bp > 0 {
			// bp == 0 means every in-range contribution underflowed to zero
			// received power — the bucketed kernel does not count such a
			// listener as touched (it detects contact via best > 0), so the
			// sweep must not either, or the two paths' Collided stats drift.
			out.Collided = append(out.Collided, v)
		}
		s.acc[v] = 0
		s.bestPow[v] = 0
		s.seen[v] = false
	}
	s.touched = s.touched[:0]
}

// sweep accumulates transmitter u's received power onto every non-
// transmitting node within the far-field cutoff.
func (s *SINR) sweep(f *Frontier, u int32) {
	pu := s.pw[u]
	alpha, fast4 := s.params.PathLoss, s.fast4
	c := s.nodeCell[u]
	cols, rows := int32(s.cols), int32(s.rows)
	rc := s.rc
	cx, cy := c%cols, c/cols
	xu, yu := s.xs[u], s.ys[u]
	for gy := max(cy-rc, 0); gy <= min(cy+rc, rows-1); gy++ {
		base := gy * cols
		for gx := max(cx-rc, 0); gx <= min(cx+rc, cols-1); gx++ {
			cell := base + gx
			for _, vu := range s.cellNodes[s.cellStart[cell]:s.cellStart[cell+1]] {
				v := int32(vu)
				if f.Has(v) {
					continue
				}
				dx := xu - s.xs[v]
				dy := yu - s.ys[v]
				d := math.Sqrt(dx*dx + dy*dy)
				if d == 0 {
					d = 1e-9
				}
				if d > s.cutoff {
					continue
				}
				pow := recvPow(pu, d, alpha, fast4)
				if !s.seen[v] {
					s.seen[v] = true
					s.touched = append(s.touched, v)
				}
				s.acc[v] += pow
				if pow > s.bestPow[v] {
					s.bestPow[v] = pow
					s.bestFrom[v] = u
				}
			}
		}
	}
}

// Clear implements Model. The kernels re-zero their per-cell and per-node
// scratch inline as each step's Resolve finishes, so there is nothing left
// to do here — the method survives as the Model seam's contract point.
func (s *SINR) Clear() {}

// Stats implements StatsSource: arena budget, the high-water candidate
// count any step has asked of it, and how many steps overflowed to the
// fallback sweep. Read at epoch boundaries by the engine probe.
func (s *SINR) Stats() Stats {
	return Stats{
		ArenaCap:       len(s.candU),
		ArenaHighWater: s.arenaHighWater,
		FallbackSweeps: s.fallbackSweeps,
	}
}
