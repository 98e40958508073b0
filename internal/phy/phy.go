// Package phy is the pluggable physical layer of the radio simulator: a
// reception model decides, for each time-step, which listeners decode which
// transmitter. The paper's model (§1.1) — a listener hears a message iff
// exactly one neighbor transmits, no collision detection — is the default
// (Collision); CollisionCD is the stronger §1.5.2 variant that delivers a
// collision marker; SINR (sinr.go) is the geometric alternative of
// footnote 1, where decoding is a signal-to-interference-plus-noise
// threshold over node positions.
//
// The engine in internal/radio drives delivery through the Model interface,
// so every protocol, experiment, topology schedule and service scenario in
// this repository composes with every reception model. A Model instance is
// stateful per run: the engine calls Sync at the start of the run and at
// every topology epoch boundary, then per step exactly one Resolve — fed
// the step's transmitter Frontier, in ascending node order — and one
// Clear. Instances must not be shared between concurrent runs.
package phy

import "repro/internal/graph"

// Decode records one successful reception: listener To decodes the message
// transmitted by From.
type Decode struct {
	To, From int32
}

// Outcome is the reception result of one step. The engine owns one Outcome
// and passes it to every Resolve; models append into the reused slices so
// the steady-state step loop allocates nothing.
type Outcome struct {
	// Decoded lists successful receptions.
	Decoded []Decode
	// Collided lists listeners that were reached by transmission energy but
	// decoded nothing, on steps where a collision is possible — graph
	// models: ≥2 transmitting neighbors; SINR: within the far-field cutoff
	// of some transmitter while ≥2 transmitters were active. The SINR count
	// therefore depends on CutoffFactor (a wider cutoff reaches more
	// listeners) even though decode decisions barely move — it is a
	// channel-usage statistic, not part of the transcript contract.
	Collided []int32
	// Marker is true when Collided listeners should receive the collision
	// marker instead of silence (collision-detection models).
	Marker bool
}

// Reset empties the outcome for the next step, keeping capacity. The engine
// calls it before each Resolve.
func (o *Outcome) Reset() {
	o.Decoded = o.Decoded[:0]
	o.Collided = o.Collided[:0]
	o.Marker = false
}

// Stats is an advisory snapshot of a model's internal load, read at epoch
// boundaries through the StatsSource interface (never per step). All fields
// are cumulative or high-water over the run so far.
type Stats struct {
	// ArenaCap is the candidate-arena budget of the bucketed SINR kernel
	// (0 for models without one).
	ArenaCap int
	// ArenaHighWater is the largest candidate count any single step asked
	// of the arena — how close the run has come to the fallback sweep.
	ArenaHighWater int
	// FallbackSweeps counts steps that overflowed the arena and resolved
	// through the per-transmitter sweep instead.
	FallbackSweeps uint64
}

// StatsSource is optionally implemented by models that can report Stats.
// The engines type-assert for it when firing radio.Options.Probe; the
// assertion and the read happen at epoch boundaries only, so implementing
// it costs the step loop nothing.
type StatsSource interface {
	Stats() Stats
}

// Model owns per-step reception semantics.
type Model interface {
	// Name is the canonical spec name of the model ("collision",
	// "collision-cd", "sinr").
	Name() string
	// Sync installs the topology in force from step on. The engines call it
	// once before step 0 and once per epoch boundary (never per step), so
	// implementations may allocate here — the step-loop methods below must
	// not. Geometric models ignore csr's edges and refresh their positions
	// for the epoch instead.
	Sync(step int, csr *graph.CSR) error
	// Resolve decides reception for the step's transmitter frontier,
	// appending into out (which arrives reset). f.List() is ascending, and
	// models that accumulate floating-point interference must sum each
	// listener's contributions in that fixed transmitter-index order, so
	// every kernel path reaches the same decode decisions and runs stay
	// transcript-identical. The frontier is read-only to the model and
	// owned by the engine, which clears it after Clear. Cost must be
	// proportional to the transmitters and the listeners they can reach,
	// not to n.
	Resolve(f *Frontier, out *Outcome)
	// Clear re-zeroes any per-step scratch dirtied by Resolve, restoring
	// the between-steps all-zero invariant at cost proportional to the
	// entries dirtied.
	Clear()
}

// Collision is the paper's reception model (§1.1): a listener decodes iff
// exactly one of its graph neighbors transmits; with two or more it hears
// nothing and cannot distinguish the collision from silence. The zero-
// overhead default — its delivery pass is the same saturating-counter
// sparse scan the engines ran before the model was pluggable.
type Collision struct {
	csr     *graph.CSR
	cur     graph.NeighborCursor // reused per-step iteration handle (compact form stays zero-alloc)
	marker  bool                 // CollisionCD delivers the marker instead of silence
	counts  []int8               // transmitting-neighbor count, saturated at 2
	from    []int32              // some transmitting neighbor (valid when counts==1)
	touched []int32              // nodes with ≥1 transmitting neighbor this step
}

// NewCollision returns the no-collision-detection graph model, the engine
// default.
func NewCollision() *Collision { return &Collision{} }

// NewCollisionCD returns the collision-detection variant (§1.5.2): listeners
// with ≥2 transmitting neighbors receive the radio.Collision marker instead
// of silence. Pass it as radio.Options.PHY to run the §1.5.2 variant.
func NewCollisionCD() *Collision { return &Collision{marker: true} }

// Name implements Model.
func (c *Collision) Name() string {
	if c.marker {
		return "collision-cd"
	}
	return "collision"
}

// Sync implements Model: install the epoch's CSR and size the scratch on
// first use. The node count is fixed for a whole run (the radio.Topology
// contract), so the scratch survives every epoch unchanged.
func (c *Collision) Sync(step int, csr *graph.CSR) error {
	c.csr = csr
	c.cur = csr.Cursor() // packed snapshots allocate their decode scratch here, not per step
	if n := csr.N(); len(c.counts) < n {
		c.counts = make([]int8, n)
		c.from = make([]int32, n)
		c.touched = make([]int32, 0, n)
	}
	return nil
}

// Resolve implements Model: one pass over the frontier marks every neighbor
// of every transmitter — counts[w] rises (saturating at 2), from[w] records
// a transmitting neighbor, touched records first contact — then the
// exactly-one-transmitting-neighbor rule runs over the touched set, the
// frontier bitset answering the half-duplex test. Transmitters hear
// nothing; retirement and wake state are the engine's concern — every
// touched listener is reported, matching the model's global view of the
// medium.
func (c *Collision) Resolve(f *Frontier, out *Outcome) {
	for _, v := range f.List() {
		for _, w := range c.cur.List(int(v)) {
			switch c.counts[w] {
			case 0:
				c.counts[w] = 1
				c.from[w] = v
				c.touched = append(c.touched, w)
			case 1:
				c.counts[w] = 2
			}
		}
	}
	out.Marker = c.marker
	for _, u := range c.touched {
		if f.Has(u) {
			continue
		}
		if c.counts[u] == 1 {
			out.Decoded = append(out.Decoded, Decode{To: u, From: c.from[u]})
		} else {
			out.Collided = append(out.Collided, u)
		}
	}
}

// Clear implements Model.
func (c *Collision) Clear() {
	for _, u := range c.touched {
		c.counts[u] = 0
	}
	c.touched = c.touched[:0]
}
