package decay

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/phy"
	"repro/internal/radio"
	"repro/internal/xrand"
)

// Flood is one run of the informed-nodes-run-Decay broadcast — the BGI
// baseline, the dynamic-topology flood and the SINR broadcast: a node that
// holds a rank transmits its best rank at step s with probability
// 2^-(s mod levels + 1), and a listener adopts any higher rank it hears.
// Nodes halt only through the run's stop flag or their step budget, which
// is right when the topology under them keeps changing. The run stops
// itself once every node holds the target (Complete).
//
// Flood is a radio.Population (run it with radio.RunPopulation): the
// per-node state lives in flat arrays — one RNG, one rank and one bit per
// node — so a step costs one coin per rank holder, found by walking a
// bitset, plus one compare per decoded reception, with no per-node
// interface call. Every node delivered to shares one local clock, so the
// step budget is one run-level counter. The transitions are those of the
// per-node protocol the tests keep as the oracle, bit for bit.
//
// Informed means holding the target, the highest source rank; no rank in
// flight exceeds it, so informed is monotone and counted incrementally.
// A Flood runs once.
type Flood struct {
	levels   int
	budget   int
	target   int64
	sources  map[int]int64
	stop     bool
	complete int

	n        int
	rng      []xrand.RNG
	rank     []int64  // rank[v]: v's best rank, 0 until it holds one
	holds    []uint64 // bit v: v holds a rank (and so draws a coin per step)
	step     int      // steps delivered so far: every node's local clock
	informed int
}

var _ radio.Population = (*Flood)(nil)

// NewFlood prepares one run flooding the sources' ranks (node index →
// rank) over levels probability levels for at most budget steps.
func NewFlood(levels, budget int, sources map[int]int64) *Flood {
	target := int64(math.MinInt64)
	for _, r := range sources {
		target = max(target, r)
	}
	return &Flood{levels: max(levels, 1), budget: budget, target: target, sources: sources, complete: -1}
}

// Target is the highest source rank, the one the flood must spread.
func (f *Flood) Target() int64 { return f.target }

// Informed is the number of nodes currently holding the target.
func (f *Flood) Informed() int { return f.informed }

// Stop halts every node before the next step.
func (f *Flood) Stop() { f.stop = true }

// Complete is the number of steps after which every node held the target
// — the run stops there — or -1 while some node does not.
func (f *Flood) Complete() int { return f.complete }

// Rank returns node v's best rank so far and whether it has one.
func (f *Flood) Rank(v int) (int64, bool) {
	return f.rank[v], f.holds[v>>6]&(1<<(v&63)) != 0
}

// Start implements radio.Population: the sources hold their ranks, every
// node gets its radio.NodeRNG stream. A flood has no per-node clocks, so
// staggered wake-up is refused.
func (f *Flood) Start(n int, opts *radio.Options) error {
	if opts.WakeAt != nil {
		return fmt.Errorf("decay: a flood shares one clock across its nodes and cannot honour Options.WakeAt")
	}
	f.n, f.step, f.informed = n, 0, 0
	f.rng = make([]xrand.RNG, n)
	f.rank = make([]int64, n)
	f.holds = make([]uint64, (n+63)/64)
	for v := range f.rng {
		f.rng[v] = radio.NodeRNG(opts.Seed, v)
	}
	for v, r := range f.sources {
		if v >= 0 && v < n {
			f.adopt(int32(v), r)
		}
	}
	return nil
}

// adopt makes r node v's best rank, counting v when r is the target (the
// rank it held, if any, was below r, so v was not counted before).
func (f *Flood) adopt(v int32, r int64) {
	f.rank[v] = r
	f.holds[v>>6] |= 1 << (v & 63)
	if r == f.target {
		f.informed++
	}
}

// done reports whether every node is done: stopped, or out of budget.
func (f *Flood) done() bool { return f.stop || f.step >= f.budget }

// Act implements radio.Population. All nodes retire together, so the
// active list is either kept whole or emptied; the transmitters are the
// rank holders whose coin came up, in ascending order.
func (f *Flood) Act(step int, active, tx []int32) ([]int32, []int32) {
	if f.done() {
		return active[:0], tx
	}
	p := Pow2Neg(step%f.levels + 1)
	for w, word := range f.holds {
		for word != 0 {
			v := w<<6 | bits.TrailingZeros64(word)
			word &= word - 1
			if f.rng[v].Bernoulli(p) {
				tx = append(tx, int32(v))
			}
		}
	}
	return active, tx
}

// Deliver implements radio.Population: each decoded listener adopts the
// transmitter's rank when it is higher than its own. Transmitters never
// receive, so rank[From] is the rank sent this step; collision markers
// carry no rank and are ignored. The step that informs the last node
// records completion and stops the run.
func (f *Flood) Deliver(step int, _ []int32, out *phy.Outcome) {
	f.step = step + 1
	for _, d := range out.Decoded {
		if r := f.rank[d.From]; f.holds[d.To>>6]&(1<<(d.To&63)) == 0 || r > f.rank[d.To] {
			f.adopt(d.To, r)
		}
	}
	if f.complete < 0 && f.informed == f.n {
		f.complete = step + 1
		f.stop = true
	}
}

// AllDone implements radio.Population.
func (f *Flood) AllDone(active []int32) bool { return len(active) == 0 || f.done() }

// floodState is the wire size of a node snapshot: best (8) + has (1) +
// step (8) + rng state (8). The shared state is not stored per node.
const floodState = 25

// SnapshotNode implements radio.Population (DESIGN.md §8); the step field
// is the run's clock, which every node shares.
func (f *Flood) SnapshotNode(v int) []byte {
	best, has := f.Rank(v)
	buf := binary.LittleEndian.AppendUint64(make([]byte, 0, floodState), uint64(best))
	buf = append(buf, 0)
	if has {
		buf[8] = 1
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(f.step))
	return binary.LittleEndian.AppendUint64(buf, f.rng[v].State())
}

// Restore implements radio.Population. Every blob must carry the same
// step, the run's clock; the informed count is recounted from the restored
// ranks.
func (f *Flood) Restore(states [][]byte) error {
	clear(f.holds)
	f.informed = 0
	for v, data := range states {
		if len(data) != floodState {
			return fmt.Errorf("decay: flood node %d state is %d bytes, want %d", v, len(data), floodState)
		}
		step := int(binary.LittleEndian.Uint64(data[9:17]))
		if v == 0 {
			f.step = step
		} else if step != f.step {
			return fmt.Errorf("decay: flood node %d state is at step %d, node 0 at step %d", v, step, f.step)
		}
		f.rank[v] = 0
		if data[8] == 1 {
			f.adopt(int32(v), int64(binary.LittleEndian.Uint64(data[0:8])))
		}
		f.rng[v].SetState(binary.LittleEndian.Uint64(data[17:25]))
	}
	return nil
}
