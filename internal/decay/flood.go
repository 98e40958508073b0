package decay

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/radio"
	"repro/internal/xrand"
)

// Flood is one run of the informed-nodes-run-Decay broadcast — the BGI
// baseline, the dynamic-topology flood and the SINR broadcast: an informed
// node transmits its best rank at step s with probability
// 2^-(s mod levels + 1), and a listener adopts any higher rank it hears.
// Nodes halt only through the run's stop flag or their step budget, which
// is right when the topology under them keeps changing.
//
// Flood is the state all nodes of the run share, behind one pointer each.
// Informed means holding the target, the highest source rank; no rank in
// flight exceeds it, so informed is monotone and nodes count their own
// transition (at construction, in Deliver and in RestoreState), making
// Informed O(1).
type Flood struct {
	levels   int
	budget   int
	target   int64
	sources  map[int]int64
	stop     bool
	informed int
}

// NewFlood prepares one run flooding the sources' ranks (node index →
// rank) over levels probability levels for at most budget steps.
func NewFlood(levels, budget int, sources map[int]int64) *Flood {
	target := int64(math.MinInt64)
	for _, r := range sources {
		target = max(target, r)
	}
	return &Flood{levels: max(levels, 1), budget: budget, target: target, sources: sources}
}

// Node is the run's radio.Factory.
func (f *Flood) Node(info radio.NodeInfo) radio.Protocol {
	nd := &FloodNode{run: f, rng: info.RNG}
	if r, ok := f.sources[info.Index]; ok {
		nd.rank = r
		f.count(nd, +1)
	}
	return nd
}

// Target is the highest source rank, the one the flood must spread.
func (f *Flood) Target() int64 { return f.target }

// Informed is the number of nodes currently holding the target.
func (f *Flood) Informed() int { return f.informed }

// Stop halts every node before the next step (flooding is complete).
func (f *Flood) Stop() { f.stop = true }

// count adds delta to the informed count when nd holds the target.
func (f *Flood) count(nd *FloodNode, delta int) {
	if r, ok := nd.Rank(); ok && r == f.target {
		f.informed += delta
	}
}

// FloodNode is one node of a Flood.
type FloodNode struct {
	run *Flood
	rng *xrand.RNG
	// rank is the best rank as the boxed int64 it arrived in (nil until
	// one is held): relaying the box keeps Act allocation-free.
	rank radio.Message
	step int
}

// Act implements radio.Protocol.
func (d *FloodNode) Act(step int) radio.Action {
	if d.rank != nil && d.rng.Bernoulli(Pow2Neg(step%d.run.levels+1)) {
		return radio.Transmit(d.rank)
	}
	return radio.Listen()
}

// Deliver implements radio.Protocol.
func (d *FloodNode) Deliver(step int, msg radio.Message) {
	d.step = step + 1
	if msg == nil {
		return
	}
	if r, ok := msg.(int64); ok && (d.rank == nil || r > d.rank.(int64)) {
		if r == d.run.target { // the held rank was below it
			d.run.informed++
		}
		d.rank = msg
	}
}

// Done implements radio.Protocol.
func (d *FloodNode) Done() bool { return d.run.stop || d.step >= d.run.budget }

// Rank returns the node's best rank so far and whether it has one.
func (d *FloodNode) Rank() (int64, bool) {
	r, ok := d.rank.(int64)
	return r, ok
}

// floodState is the wire size of a FloodNode snapshot: best (8) + has (1) +
// step (8) + rng state (8). The shared state is not stored per node.
const floodState = 25

// SnapshotState implements radio.Snapshotter (DESIGN.md §8).
func (d *FloodNode) SnapshotState() []byte {
	best, has := d.Rank()
	buf := binary.LittleEndian.AppendUint64(make([]byte, 0, floodState), uint64(best))
	buf = append(buf, 0)
	if has {
		buf[8] = 1
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(d.step))
	return binary.LittleEndian.AppendUint64(buf, d.rng.State())
}

// RestoreState implements radio.Snapshotter, moving the node's share of the
// informed count along, so a resumed run's count needs no rescan.
func (d *FloodNode) RestoreState(data []byte) error {
	if len(data) != floodState {
		return fmt.Errorf("decay: flood node state is %d bytes, want %d", len(data), floodState)
	}
	d.run.count(d, -1)
	d.rank = nil
	if data[8] == 1 {
		d.rank = int64(binary.LittleEndian.Uint64(data[0:8]))
	}
	d.step = int(binary.LittleEndian.Uint64(data[9:17]))
	d.rng.SetState(binary.LittleEndian.Uint64(data[17:25]))
	d.run.count(d, +1)
	return nil
}
