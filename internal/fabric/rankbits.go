package fabric

import "math/bits"

// RankBits is a dense bitset over ranks [0, n): one bit per rank, packed
// into 64-bit words. It indexes "which ranks have something" so a walk
// costs O(n/64 + members) instead of O(n) tests of per-rank state. The
// match queues keep one per class (sources with queued messages) and the
// MPI epoch keeps one per window (targets with unflushed operations).
//
// Unlike PeerSet, whose memory stays proportional to activity, RankBits
// always holds n/64 words and never sorts: ascending iteration falls out
// of the word order. It is not safe for concurrent use; callers guard it
// with whatever lock guards the state it indexes.
type RankBits []uint64

// NewRankBits returns an empty set over a world of n ranks.
func NewRankBits(n int) RankBits { return make(RankBits, (n+63)/64) }

// Set adds rank r.
func (b RankBits) Set(r int) { b[r>>6] |= 1 << (uint(r) & 63) }

// Clear removes rank r.
func (b RankBits) Clear(r int) { b[r>>6] &^= 1 << (uint(r) & 63) }

// Has reports whether rank r is a member.
func (b RankBits) Has(r int) bool { return b[r>>6]&(1<<(uint(r)&63)) != 0 }

// Next returns the smallest member >= r, or -1 when there is none. The
// ascending walk is
//
//	for r := b.Next(0); r >= 0; r = b.Next(r + 1) { ... }
//
// and it tolerates clearing the current member inside the loop body.
func (b RankBits) Next(r int) int {
	i := r >> 6
	if i >= len(b) {
		return -1
	}
	if w := b[i] >> (uint(r) & 63); w != 0 {
		return r + bits.TrailingZeros64(w)
	}
	for i++; i < len(b); i++ {
		if b[i] != 0 {
			return i<<6 + bits.TrailingZeros64(b[i])
		}
	}
	return -1
}
