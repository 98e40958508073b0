package phy

// Frontier is one step's transmitter set in the two forms the batched
// reception kernels want: a bitset for O(1) membership tests and the
// ascending id list for ordered iteration. The engine owns one Frontier per
// run and hands it its whole ascending transmitter list once per step
// (Set), so a model always receives one canonical frontier.
type Frontier struct {
	bits []uint64
	list []int32
}

// Resize prepares the frontier for node ids in [0, n), preserving the
// grow-only arena discipline: capacity only ever increases, so per-epoch
// Resize calls allocate nothing once the run's node count has been seen.
// The frontier must be empty (Clear) when Resize is called.
func (f *Frontier) Resize(n int) {
	words := (n + 63) / 64
	if cap(f.bits) < words {
		f.bits = make([]uint64, words)
	} else {
		f.bits = f.bits[:words]
	}
}

// Set installs a step's transmitters: the complete list, ascending, in one
// call on an empty frontier (it panics otherwise). The frontier borrows tx
// until Clear; the caller must not modify it before then.
func (f *Frontier) Set(tx []int32) {
	if len(f.list) != 0 {
		panic("phy: Frontier.Set on a non-empty frontier")
	}
	for _, v := range tx {
		f.bits[uint32(v)>>6] |= 1 << (uint32(v) & 63)
	}
	f.list = tx
}

// Has reports whether v transmits this step.
func (f *Frontier) Has(v int32) bool {
	return f.bits[uint32(v)>>6]&(1<<(uint32(v)&63)) != 0
}

// List returns this step's transmitters in ascending order: the list given
// to Set, valid until the next Clear.
func (f *Frontier) List() []int32 { return f.list }

// Len returns the number of transmitters this step.
func (f *Frontier) Len() int { return len(f.list) }

// Clear re-zeroes the frontier at cost proportional to the transmitters
// set, restoring the between-steps all-zero invariant, and releases the
// borrowed list.
func (f *Frontier) Clear() {
	for _, v := range f.list {
		f.bits[uint32(v)>>6] = 0
	}
	f.list = nil
}
