package congest

import (
	"math/bits"
	"sync/atomic"
)

// sched.go is the round scheduler: which nodes a round steps, and in what
// order. A node is scheduled when the phase starts (round 0 steps every
// node), when its last Step returned true, when a message was sent to it
// last round, or when a timer it set is due (timers.go). Each round's scheduled set is a two-level bitmap; the engine
// keeps two (cur, drained this round; next, marked this round) and flips
// them with the delivery buffers.
//
// One drain serves every round of both engines. It walks cur's set bits in
// ascending node order, so the stepped set, its order and therefore every
// PRNG stream and cost are those of a full-range scan of the scheduling
// predicate — without the scan: a round costs O(n/4096 + awake), where
// n/4096 is the summary words walked. No list, no sort, no capacity that
// can overflow, and so no fallback path.

// schedSet is a set of nodes as a two-level bitmap: bit v&63 of words[v>>6]
// marks node v, and bit w&63 of summary[w>>6] marks that words[w] may be
// nonzero. A summary word covers 4096 nodes, so a walk of the whole set
// reads n/4096 summary words plus the marked words only.
type schedSet struct {
	words   []uint64
	summary []uint64
}

func newSchedSet(n int) schedSet {
	nw := (n + 63) >> 6
	return schedSet{words: make([]uint64, nw), summary: make([]uint64, (nw+63)>>6)}
}

// mark adds node v. Single writer: the sequential engine's Send, or the
// parallel coordinator's merge between waves.
func (s schedSet) mark(v int32) {
	s.words[v>>6] |= 1 << (uint32(v) & 63)
	s.summary[v>>12] |= 1 << (uint32(v>>6) & 63)
}

// orBits sets the bits of mask in *p. Parallel workers pass shared: an
// edge-balanced shard boundary can split a word (and a summary word)
// between two workers marking their active nodes in the same wave.
func orBits(p *uint64, mask uint64, shared bool) {
	if shared {
		atomic.OrUint64(p, mask)
	} else {
		*p |= mask
	}
}

// fill sets the set to every node of [0, n): a phase's first round.
func (s schedSet) fill(n int) {
	fillBits(s.words, n)
	fillBits(s.summary, len(s.words))
}

// fillBits sets bits [0, n) of a, whose length is exactly ceil(n/64).
func fillBits(a []uint64, n int) {
	for i := range a {
		a[i] = ^uint64(0)
	}
	if r := n & 63; r != 0 {
		a[len(a)-1] = 1<<r - 1
	}
}

// reset empties the set in O(len(summary) + marked words).
func (s schedSet) reset() {
	for i, sw := range s.summary {
		if sw == 0 {
			continue
		}
		for ; sw != 0; sw &= sw - 1 {
			s.words[i<<6+bits.TrailingZeros64(sw)] = 0
		}
		s.summary[i] = 0
	}
}

// drain steps the scheduled nodes of [lo, hi) — the whole range on the
// sequential engine, one worker's shard on the parallel one — once each, in
// ascending order, skipping crashed nodes. A Step that returns true marks
// its node in next (shared: atomically, see orBits). It returns how many
// nodes came back active and how many stepped at all (the awake% counter).
// cur is read-only for the whole round, so concurrent drains of disjoint
// ranges never conflict, even inside a shared word.
func (st *runState) drain(ctx *Ctx, lo, hi int, shared bool) (active, stepped int64) {
	if lo >= hi {
		return 0, 0
	}
	cur, next, f := st.schedCur, st.schedNext, st.fault
	wlo, whi := lo>>6, (hi-1)>>6
	for si := wlo >> 6; si <= whi>>6; si++ {
		sw := cur.summary[si]
		if sw == 0 {
			continue // the common case on a quiet network: 4096 idle nodes
		}
		if si == wlo>>6 {
			sw &= ^uint64(0) << (wlo & 63)
		}
		if si == whi>>6 {
			sw &= ^uint64(0) >> (63 - whi&63)
		}
		var marked uint64 // summary bits of the words marked in next
		for ; sw != 0; sw &= sw - 1 {
			sb := bits.TrailingZeros64(sw)
			w := si<<6 + sb
			word := cur.words[w]
			if w == wlo {
				word &= ^uint64(0) << (lo & 63)
			}
			if w == whi {
				word &= ^uint64(0) >> (63 - (hi-1)&63)
			}
			var act uint64
			for ; word != 0; word &= word - 1 {
				b := bits.TrailingZeros64(word)
				v := w<<6 + b
				if f != nil && f.crashed[v] {
					continue
				}
				ctx.v = v
				stepped++
				if st.proc.Step(ctx, v) {
					act |= 1 << b
					active++
				}
			}
			if act != 0 {
				orBits(&next.words[w], act, shared)
				marked |= 1 << sb
			}
		}
		if marked != 0 {
			orBits(&next.summary[si], marked, shared)
		}
	}
	return active, stepped
}
