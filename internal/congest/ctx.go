package congest

import (
	"fmt"
	"math/rand"
)

// Ctx is a node's window onto the network for one round of one phase. It
// exposes exactly the KT0 CONGEST-local information: the node's own ID,
// port count, per-node randomness, the messages delivered this round, and
// the ability to send one message per port.
type Ctx struct {
	st   *runState
	v    int
	sent *int64 // messages sent through this Ctx (engine-owned counter)
	// Sender-side dirty tracking, parallel engine only (nil selects the
	// sequential inline path in Send/Broadcast): the worker's segment of
	// the shared dirty buffer, emptied at the start of each wave. Every
	// slot write appends its receiver here; the coordinator merges the
	// segments into next round's wake stamps and schedule (mergeDirty), so
	// wake derivation costs O(delivered). The segment's capacity is the
	// worker's half-edge span, which its sends cannot exceed.
	dirty []int32
}

// Node returns the node's index. Protocol code must treat this as an opaque
// handle for indexing per-node state, never as knowledge about the network
// (the model-visible identifier is ID).
func (c *Ctx) Node() int { return c.v }

// ID returns the node's unique O(log n)-bit identifier.
func (c *Ctx) ID() int64 { return c.st.net.ids[c.v] }

// Round returns the current round number within the phase (0-based).
func (c *Ctx) Round() int64 { return c.st.round - c.st.base }

// Degree returns the node's port count.
func (c *Ctx) Degree() int {
	rs := c.st.net.csr.RowStart
	return int(rs[c.v+1] - rs[c.v])
}

// Rand returns the node's private PRNG (created on first use; the stream
// depends only on the master seed and the node index).
func (c *Ctx) Rand() *rand.Rand { return c.st.net.rng(c.v) }

// ForRecv invokes f for every message delivered this round, in ascending
// sender-index order, reading the edge-slot buffer in place. rank is the
// sender's rank among the node's neighbors (the slot offset), so rank ==
// Port only when neighbor order and port order agree. It is the engine's
// one receive primitive: every protocol folds a round's deliveries through
// it.
//
// The arrival port is synthesized from the static slot geometry (slotPort),
// and the Incoming values f receives are by-value copies, so the callback
// may retain them freely — no engine storage is aliased. Calling Send from
// f is allowed (delivery buffers and send buffers are distinct arrays).
func (c *Ctx) ForRecv(f func(rank int, in Incoming)) {
	st := c.st
	b := st.engineBuffers
	v := c.v
	if b.wakeCur[v] != st.snow-1 {
		return
	}
	rs := st.net.csr.RowStart
	lo, hi := rs[v], rs[v+1]
	sentAt := st.snow - 1
	stamps := b.curStamp[lo:hi]
	msgs := b.curMsg[lo:hi]
	ports := st.net.slotPort[lo:hi]
	for k := range stamps {
		if stamps[k] == sentAt {
			f(k, Incoming{Port: int(ports[k]), Msg: msgs[k]})
		}
	}
}

// half returns the CSR half-edge behind port p. A port the node does not
// have is a protocol bug and panics. p is range-checked as an int (one
// unsigned compare covers p < 0) before the int32 conversion, so an
// out-of-range port cannot wrap back into range.
func (c *Ctx) half(p int) int32 {
	rs := c.st.net.csr.RowStart
	lo, hi := rs[c.v], rs[c.v+1]
	if uint(p) >= uint(hi-lo) {
		panic(badPort{c.v, p, hi - lo})
	}
	return lo + int32(p)
}

// badPort is half's panic value. A value rather than a formatted string so
// the check stays cheap enough to inline into Send.
type badPort struct {
	v, p int
	deg  int32
}

func (b badPort) Error() string {
	return fmt.Sprintf("congest: node %d has no port %d (degree %d)", b.v, b.p, b.deg)
}

// Send transmits one message over port p, to be delivered next round. The
// message is written straight into its receiver-side edge slot; slots are
// disjoint across all (sender, port) pairs, so no buffering or merge pass
// exists on any engine. Sending twice on the same port in one round
// violates the CONGEST model and panics: that is a protocol bug, not a
// runtime condition.
//
// Under a fault scenario, a Send on a dead port (see PortDown) is counted
// in Metrics.Messages and then dropped: the sender pays the model's message
// cost, the receiver never sees anything, and no slot is written — so the
// double-send panic does not apply to dead ports.
func (c *Ctx) Send(p int, m Message) {
	st := c.st
	csr := &st.net.csr
	h := c.half(p)
	if f := st.fault; f != nil && f.portDead[h] {
		*c.sent++
		return
	}
	slot := st.net.destSlot[h]
	b := st.engineBuffers
	if b.nextStamp[slot] == st.snow {
		panic(fmt.Sprintf("congest: node %d sent twice on port %d in round %d", c.v, p, st.round-st.base))
	}
	b.nextStamp[slot] = st.snow
	// The slot stores only the 32-byte message: the arrival port is a
	// static property of the slot (Network.slotPort), derived by the read
	// side, so a delivered message moves 36 bytes (message + int32 stamp)
	// instead of the packed-Incoming layout's 48. No Port prefill either —
	// which at n = 10^6 was a 320 MB first-touch pass before any round ran.
	b.nextMsg[slot] = m
	if c.dirty == nil {
		// Sequential engine: single writer, so the wake stamp and the
		// schedule mark are written inline — the stamp doubling as the
		// mark's dedup (first delivery to a node this round marks it, later
		// ones see the stamp already set). The parallel engine cannot write
		// either here (concurrent senders may share a receiver); it records
		// the receiver in the worker's dirty segment instead and the
		// coordinator writes both after the step wave.
		to := csr.PortTo[h]
		if b.wakeNext[to] != st.snow {
			b.wakeNext[to] = st.snow
			b.schedNext.mark(to)
		}
	} else {
		c.dirty = append(c.dirty, csr.PortTo[h])
	}
	*c.sent++
}

// CanSend reports whether port p is still free this round.
func (c *Ctx) CanSend(p int) bool {
	return c.st.nextStamp[c.st.net.destSlot[c.half(p)]] != c.st.snow
}

// PortDown reports whether port p's edge is dead under the network's fault
// scenario: the edge was dropped, or the neighbor behind it crashed. On a
// fault-free network every port is up. Asking for a port the node does not
// have panics, as Send does.
//
// PortDown is the only protocol-visible fault signal besides silence: a
// crashed node is never stepped, so from inside a Step the world consists
// of live ports that deliver and dead ports that don't.
func (c *Ctx) PortDown(p int) bool {
	h := c.half(p)
	f := c.st.fault
	return f != nil && f.portDead[h]
}

// Broadcast sends m on every port (one message per edge, as the model
// allows). Equivalent to calling Send on each port in ascending order, but
// fused into one pass over the node's CSR window — the hottest send pattern
// in the paper's protocols (floods, aggregation storms). Dead ports are
// counted-then-dropped exactly as Send drops them.
func (c *Ctx) Broadcast(m Message) {
	st := c.st
	csr := &st.net.csr
	lo, hi := csr.RowStart[c.v], csr.RowStart[c.v+1]
	dest := st.net.destSlot[lo:hi]
	b := st.engineBuffers
	snow := st.snow
	sequential := c.dirty == nil
	fault := st.fault
	for i, slot := range dest {
		if fault != nil && fault.portDead[lo+int32(i)] {
			continue // counted below, dropped here — same as Send on a dead port
		}
		if b.nextStamp[slot] == snow {
			panic(fmt.Sprintf("congest: node %d sent twice on port %d in round %d", c.v, i, st.round-st.base))
		}
		b.nextStamp[slot] = snow
		b.nextMsg[slot] = m
		to := csr.PortTo[lo+int32(i)]
		if !sequential {
			c.dirty = append(c.dirty, to)
		} else if b.wakeNext[to] != snow {
			// Inline wake + schedule mark, as in Send.
			b.wakeNext[to] = snow
			b.schedNext.mark(to)
		}
	}
	*c.sent += int64(hi - lo)
}
