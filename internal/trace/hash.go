package trace

// Transcript hashing for golden regression tests: a Hasher wraps a
// radio.Factory so that every node's (nodeID, step, action/deliver) event
// stream is folded into an FNV-1a hash. The per-node streams are combined
// with a commutative mix, so the digest depends only on each node's own
// call sequence — exactly what the engine's determinism contract
// (DESIGN.md §3) promises to preserve — and not on how calls interleave
// across nodes. A refactor of the engine's loop order therefore keeps the
// digest, and any future engine change that silently alters
// protocol-visible semantics changes it.

import (
	"sync"

	"repro/internal/radio"
)

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211

	evAct     = 0xA1
	evDeliver = 0xD2
)

// Hasher accumulates per-node transcript hashes for one simulation run.
// Wrap as many factories as needed before the run; call Sum after the run
// completes. The zero value is not usable; call NewHasher.
type Hasher struct {
	mu    sync.Mutex
	nodes []*hashNode
}

// NewHasher returns an empty transcript hasher.
func NewHasher() *Hasher { return &Hasher{} }

// Wrap returns a factory producing protocols that transparently forward to
// f's protocols while hashing every Act and Deliver call.
func (h *Hasher) Wrap(f radio.Factory) radio.Factory {
	return func(info radio.NodeInfo) radio.Protocol {
		inner := f(info)
		if inner == nil {
			return nil
		}
		nd := &hashNode{inner: inner, id: uint64(info.Index), h: fnvOffset64}
		h.mu.Lock()
		h.nodes = append(h.nodes, nd)
		h.mu.Unlock()
		return nd
	}
}

// Sum folds the per-node hashes into one digest. The fold is commutative
// (per-node digests are finalized, then XORed), so the result is
// independent of node creation order and of cross-node call interleaving.
// Call only after the run has finished.
func (h *Hasher) Sum() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	var sum uint64
	for _, nd := range h.nodes {
		sum ^= mix64(nd.h ^ (nd.id+1)*0x9e3779b97f4a7c15)
	}
	return sum
}

// FNV1a returns the 64-bit FNV-1a hash of data — the same stream function
// the transcript hasher folds events with — for callers that need a short
// stable content hash (exp.TrialSeed salts per-trial seeds with it and the
// serve subsystem derives grid IDs from canonical spec bytes).
func FNV1a(data []byte) uint64 {
	h := uint64(fnvOffset64)
	for _, b := range data {
		h ^= uint64(b)
		h *= fnvPrime64
	}
	return h
}

// mix64 is the SplitMix64 finalizer, decorrelating per-node digests before
// the XOR fold.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// hashNode forwards to the wrapped protocol, hashing the call stream.
type hashNode struct {
	inner radio.Protocol
	id    uint64
	h     uint64
}

// write folds one event into the node's FNV-1a stream.
func (n *hashNode) write(vals ...uint64) {
	h := n.h
	for _, v := range vals {
		for b := 0; b < 8; b++ {
			h ^= (v >> (8 * b)) & 0xff
			h *= fnvPrime64
		}
	}
	n.h = h
}

func (n *hashNode) Act(step int) radio.Action {
	a := n.inner.Act(step)
	tx := uint64(0)
	if a.Transmit {
		tx = 1
	}
	n.write(n.id, uint64(step), evAct, tx)
	return a
}

func (n *hashNode) Deliver(step int, msg radio.Message) {
	// Classify the delivery: silence, a real message, or the collision
	// marker (collision-detection models only, phy.NewCollisionCD).
	// Payload bytes are protocol-defined `any` values and are deliberately
	// not hashed.
	kind := uint64(0)
	switch {
	case msg == nil:
	case radio.IsCollision(msg):
		kind = 2
	default:
		kind = 1
	}
	n.write(n.id, uint64(step), evDeliver, kind)
	n.inner.Deliver(step, msg)
}

func (n *hashNode) Done() bool { return n.inner.Done() }
