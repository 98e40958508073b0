package graph

// Compact adjacency: an alternative CSR storage form for the million-node
// engine path (DESIGN.md §11). The flat form spends 4 bytes per directed
// edge; the packed form stores each list as frame-of-reference bit-packed
// deltas (Lemire & Boytsov, arXiv:1209.2137), every delta of a list in the
// same number of bits, so decoding an entry is one unaligned load, a shift
// and a mask, with no branch on the data. A packed CSR answers the same
// N/M/Degree/Neighbors contract the engines and traversals consume — only
// the iteration fast path changes, from an edge-array subslice to a reused
// decode cursor (NeighborCursor), which is what keeps the step loop
// zero-alloc (the alloc regression tests pin it).
//
// Block format, per vertex, preserving exact list order (the transcript
// contract depends on neighbor order, so packing must be lossless including
// order):
//   - deg 0: no bytes;
//   - the first neighbor id as a uvarint;
//   - when deg ≥ 2, one header byte: the low bits hold the width b, the bit
//     length of the block's largest delta, and blockZigzag marks a list
//     that is not ascending, whose deltas are stored zigzag-coded;
//   - then the deg−1 deltas from the previous entry, b bits each,
//     LSB-first, padded to a byte.
// Builder-made lists are ascending, so zigzag mode only serves snapshots
// built in insertion order; Pack works on either. The blob ends with
// blockSlack zero bytes, so the decoder's 8-byte load at the last entry of
// the last block stays inside it.

import (
	"encoding/binary"
	"math"
	"math/bits"
)

// CompactThreshold is the vertex count at and above which the streaming
// generator entry points (gen.BuildCSR) hand back packed adjacency
// automatically. Below it the flat form's iteration speed wins; above it
// the edge-storage saving (about 2× at 2¹⁶, DESIGN.md §11) is what lets
// n = 10⁶ fit comfortably.
const CompactThreshold = 1 << 16

const (
	blockWidth  = 0x3f // header bits holding the delta width (≤ 33)
	blockZigzag = 0x80 // header flag: deltas are zigzag-coded
	blockSlack  = 8    // zero bytes after the last block
)

// packed reports whether this snapshot stores packed adjacency.
func (c *CSR) packed() bool { return c.blob != nil }

// IsPacked reports whether the snapshot stores bit-packed adjacency blocks
// instead of the flat edge array.
func (c *CSR) IsPacked() bool { return c.packed() }

// Pack returns a snapshot equivalent to c (same vertex count, same neighbor
// lists in the same order) with the adjacency bit-packed. The offsets table
// is shared with c — it is immutable and still provides Degree — while the
// flat edge array is replaced by the byte blob. Returns c unchanged when it
// is already packed, or in the degenerate case where the blob would
// overflow the 32-bit block-start table (unreachable below ~2³¹ edges).
func (c *CSR) Pack() *CSR {
	if c.packed() {
		return c
	}
	n := c.N()
	// A sizing pass picks every block's header, so the blob is allocated
	// once, at its exact size: it stays resident for the whole run.
	hdrs := make([]byte, n)
	size := blockSlack
	for v := range n {
		list := c.edges[c.offsets[v]:c.offsets[v+1]]
		hdrs[v] = blockHeader(list)
		size += blockLen(list, hdrs[v])
	}
	if uint64(size) > math.MaxUint32 {
		return c
	}
	starts := make([]uint32, n+1)
	buf := make([]byte, 0, size)
	for v := range n {
		starts[v] = uint32(len(buf))
		buf = appendBlock(buf, c.edges[c.offsets[v]:c.offsets[v+1]], hdrs[v])
	}
	starts[n] = uint32(len(buf))
	return &CSR{offsets: c.offsets, blob: buf[:size], starts: starts}
}

// blockHeader is the header byte of list's block: the zigzag flag when the
// list is not ascending, and the width of its widest stored delta.
func blockHeader(list []int32) byte {
	var hdr byte
	for i := 1; i < len(list); i++ {
		if list[i] < list[i-1] {
			hdr = blockZigzag
			break
		}
	}
	var widest uint64
	for i := 1; i < len(list); i++ {
		widest |= blockDelta(hdr, list[i-1], list[i])
	}
	return hdr | byte(bits.Len64(widest))
}

// blockLen is the byte length of list's block under header hdr.
func blockLen(list []int32, hdr byte) int {
	if len(list) == 0 {
		return 0
	}
	first := (bits.Len32(uint32(list[0])|1) + 6) / 7
	if len(list) == 1 {
		return first
	}
	return first + 1 + ((len(list)-1)*int(hdr&blockWidth)+7)/8
}

// appendBlock appends list's block, under header hdr, to buf.
func appendBlock(buf []byte, list []int32, hdr byte) []byte {
	if len(list) == 0 {
		return buf
	}
	buf = binary.AppendUvarint(buf, uint64(uint32(list[0])))
	if len(list) == 1 {
		return buf
	}
	buf = append(buf, hdr)
	w := uint(hdr & blockWidth)
	var acc uint64 // pending bits, LSB first: at most 7 + 33 of them
	var pending uint
	for i := 1; i < len(list); i++ {
		acc |= blockDelta(hdr, list[i-1], list[i]) << pending
		for pending += w; pending >= 8; pending -= 8 {
			buf = append(buf, byte(acc))
			acc >>= 8
		}
	}
	if pending > 0 {
		buf = append(buf, byte(acc))
	}
	return buf
}

// blockDelta is the stored form of the step from prev to next: the plain
// difference in an ascending block, its zigzag code otherwise.
func blockDelta(hdr byte, prev, next int32) uint64 {
	d := int64(next) - int64(prev)
	if hdr&blockZigzag == 0 {
		return uint64(d)
	}
	return uint64(d<<1 ^ d>>63)
}

// Unpack returns the flat-form equivalent of c (c itself when already flat).
func (c *CSR) Unpack() *CSR {
	if !c.packed() {
		return c
	}
	n := c.N()
	edges := make([]int32, c.offsets[n])
	for v := 0; v < n; v++ {
		decodeBlock(c.blob[c.starts[v]:], edges[c.offsets[v]:c.offsets[v+1]])
	}
	return &CSR{offsets: c.offsets, edges: edges}
}

// decodeBlock decodes the block at the head of b into out, whose length
// must be the vertex's degree. b runs to the end of the blob, so the slack
// bytes make every entry's 8-byte load in bounds.
func decodeBlock(b []byte, out []int32) {
	if len(out) == 0 {
		return
	}
	first, k := binary.Uvarint(b)
	prev := int32(uint32(first))
	out[0] = prev
	if len(out) == 1 {
		return
	}
	hdr := b[k]
	b = b[k+1:]
	w := uint(hdr & blockWidth)
	mask := uint64(1)<<w - 1
	rest := out[1:]
	pos := uint(0)
	if hdr&blockZigzag == 0 {
		for i := range rest {
			x := binary.LittleEndian.Uint64(b[pos>>3:]) >> (pos & 7) & mask
			prev += int32(x)
			rest[i] = prev
			pos += w
		}
		return
	}
	for i := range rest {
		x := binary.LittleEndian.Uint64(b[pos>>3:]) >> (pos & 7) & mask
		prev += int32(x>>1) ^ -int32(x&1)
		rest[i] = prev
		pos += w
	}
}

// NeighborCursor iterates one snapshot's adjacency lists without per-call
// allocation: flat snapshots hand back edge-array subslices as Neighbors
// does, packed snapshots decode into a scratch buffer sized to the maximum
// degree when the cursor was made. It is the hot-path iteration handle for
// code that must stay zero-alloc per step against either form (phy models,
// BFS). A cursor is single-goroutine state — each concurrent reader makes
// its own — and the slice List returns is valid only until the next List
// call on the same cursor.
type NeighborCursor struct {
	c   *CSR
	buf []int32 // packed-form decode scratch; nil for flat snapshots
}

// Cursor returns an iteration cursor over c. For packed snapshots this
// allocates the decode scratch (one O(Δ) buffer), so make the cursor at
// sync/construction time, never inside a step loop.
func (c *CSR) Cursor() NeighborCursor {
	if !c.packed() {
		return NeighborCursor{c: c}
	}
	return NeighborCursor{c: c, buf: make([]int32, c.MaxDegree())}
}

// List returns v's neighbor list. Flat form: a shared subslice, exactly
// Neighbors. Packed form: the cursor's scratch buffer, overwritten by the
// next List call. Callers must not modify the result in either form.
func (cur *NeighborCursor) List(v int) []int32 {
	c := cur.c
	if c.blob == nil {
		return c.edges[c.offsets[v]:c.offsets[v+1]]
	}
	out := cur.buf[:c.offsets[v+1]-c.offsets[v]]
	decodeBlock(c.blob[c.starts[v]:], out)
	return out
}

// MaxDegree returns Δ of the snapshot, 0 for the empty graph.
func (c *CSR) MaxDegree() int {
	maxDeg := int32(0)
	for v := 1; v < len(c.offsets); v++ {
		if d := c.offsets[v] - c.offsets[v-1]; d > maxDeg {
			maxDeg = d
		}
	}
	return int(maxDeg)
}

// MemBytes returns the resident size of the snapshot's arrays in bytes —
// the quantity the bench harness tracks as bytes/node. It counts the
// storage the snapshot owns (offsets, edges or blob+starts), not Go object
// headers.
func (c *CSR) MemBytes() int64 {
	b := int64(len(c.offsets)) * 4
	b += int64(len(c.edges)) * 4
	b += int64(len(c.blob))
	b += int64(len(c.starts)) * 4
	return b
}
