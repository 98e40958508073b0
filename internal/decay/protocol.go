package decay

import "repro/internal/radio"

// Node is a standalone radio.Protocol that runs one amplified Decay block
// and then halts. It exists so the Decay primitive can be tested and
// benchmarked directly against Claim 10, and serves as the simplest example
// of phase-structured protocol code.
type Node struct {
	phase *Phase
	step  int
	done  bool
}

var _ radio.Protocol = (*Node)(nil)

// NewNode builds a protocol node running `iterations` Decay iterations.
// Senders (active=true) transmit msg; all nodes record what they hear.
func NewNode(info radio.NodeInfo, iterations int, active bool, msg radio.Message) *Node {
	return &Node{phase: NewPhase(info.N, iterations, active, msg, info.RNG)}
}

// Act implements radio.Protocol.
func (d *Node) Act(step int) radio.Action {
	if d.step >= d.phase.Len() {
		d.done = true
		return radio.Listen()
	}
	return d.phase.Act(d.step)
}

// Deliver implements radio.Protocol.
func (d *Node) Deliver(step int, msg radio.Message) {
	if d.step < d.phase.Len() {
		d.phase.Deliver(d.step, msg)
	}
	d.step++
	if d.step >= d.phase.Len() {
		d.done = true
	}
}

// Done implements radio.Protocol.
func (d *Node) Done() bool { return d.done }

// Heard reports the phase outcome after the run.
func (d *Node) Heard() (radio.Message, bool) { return d.phase.Heard() }
