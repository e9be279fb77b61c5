package congest

import "fmt"

// timers.go is the engine's one-shot timer: a node that waits on the clock
// (a start delay, a verify window) calls Ctx.WakeAt and parks instead of
// returning true every round. Pending timers are one binary min-heap of
// (global round, node) in the engine buffers; a due timer sets the node's
// bit in the round's schedule, so push order never matters.

// timer is one pending wake-up: node v is due in global round at.
type timer struct {
	at int64
	v  int32
}

// timerHeap is a binary min-heap of timers ordered by round.
type timerHeap []timer

func (h *timerHeap) push(t timer) {
	s := append(*h, t)
	i := len(s) - 1
	for ; i > 0 && s[(i-1)/2].at > t.at; i = (i - 1) / 2 {
		s[i] = s[(i-1)/2]
	}
	s[i] = t
	*h = s
}

// pop removes the earliest timer.
func (h *timerHeap) pop() {
	s := *h
	n := len(s) - 1
	last, i := s[n], 0
	for c := 1; c < n; c = 2*i + 1 {
		if c+1 < n && s[c+1].at < s[c].at {
			c++
		}
		if last.at <= s[c].at {
			break
		}
		s[i], i = s[c], c
	}
	s[i] = last
	*h = s[:n]
}

// WakeAt schedules this node to be stepped in phase round r, whether or not
// a message arrives then. r must be later than the current round; anything
// else is a protocol bug and panics, as a second Send on one port does. A
// timer is one-shot and costs no message. Until it fires the phase cannot
// quiesce, unless the node crashes first. Several timers for one round step
// the node once.
func (c *Ctx) WakeAt(r int64) {
	st := c.st
	if now := st.round - st.base; r <= now {
		panic(fmt.Sprintf("congest: node %d set a timer for round %d in round %d", c.v, r, now))
	}
	t := timer{at: st.base + min(r, 1<<63-1-st.base), v: int32(c.v)}
	if c.dirty == nil {
		st.timers.push(t) // sequential: single writer
	} else {
		c.timers = append(c.timers, t) // parallel: pushed by mergeDirty
	}
}

// fireTimers marks the nodes whose timer is due into this round's
// schedule. Runs on the coordinator after applyFaults, before the drain.
func (st *runState) fireTimers() {
	for h := &st.timers; len(*h) > 0 && (*h)[0].at <= st.round; h.pop() {
		st.schedCur.mark((*h)[0].v)
	}
}
