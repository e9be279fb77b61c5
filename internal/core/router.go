package core

import (
	"shortcutpa/internal/congest"
	"shortcutpa/internal/part"
	"shortcutpa/internal/shortcut"
	"shortcutpa/internal/subpart"
)

// router.go is the event-driven realization of Algorithm 1 (PA given a
// sub-part division and a T-restricted shortcut) and Algorithm 2
// (verification). The paper presents Algorithm 1 as b lock-step iterations
// of (BlockRoute between representatives; broadcast inside sub-parts;
// one-hop crossing of sub-part exits; routing to representatives) followed
// by a symmetric convergecast and a symmetric result broadcast. Here the
// same flows run event-driven: every information-carrying transmission is a
// TOKEN that the receiver either adopts (first receipt — the edge joins the
// part's broadcast tree) or declines, and the convergecast runs back up the
// recorded broadcast tree. Lock-step iterations are a worst-case analysis
// device; the event-driven execution performs a subset of the same sends,
// so its round count is bounded by the paper's O(bD+c) / O(b(D+c)) budgets,
// which the budget-doubling driver (construct.go) verifies explicitly.
//
// Block traversal follows Observation 4.3's message accounting: only
// representatives inject; every representative on a block lays a BEACON
// path rootward along its block, and tokens descend only along recorded
// beacon paths, so block messages total O(#reps · D) rather than Ω(Σ|H_i|).
//
// Lemma 4.2's scheduling discipline is realized by per-port queues: the
// deterministic variant forwards the packet whose block root is shallowest
// (ties by part ID, then arrival order); the randomized variant uses FIFO
// queues with the whole part delayed by a pseudo-random offset in [0, c)
// derived from the part ID (Algorithm 1's "delay ~ U(c)").
//
// Node state is flat: each node holds its part records sorted by part ID
// and its port queues sorted by port, found by binary search. Every walk
// (sealing in tryComplete, sending in flush) runs in ascending order, which
// is the order the schedule — and so every Rounds/Messages figure — is
// pinned to. A node with nothing to send parks: the engine steps it only
// when a message arrives or one of its clock waits ends — its part's start
// delay, and in verify mode the complaint round verifyAt and the seal gate
// at verifyAt+2 — each of which it sets as a congest timer (Ctx.WakeAt) in
// round 0. The Engine reuses the records and their slices from one router
// run to the next.

// Router message kinds.
const (
	kToken int32 = iota + 80
	kBeacon
	kAckAdopt
	kAckDecline
	kAgg
	kAggEmpty
	kResult
	kComplain
)

// routerMode selects between solving PA and verifying coverage (Alg 2).
type routerMode int

const (
	modeSolve routerMode = iota + 1
	modeVerify
)

// routerConfig is shared read-only state for one router run.
type routerConfig struct {
	eng        *Engine
	in         *part.Info
	div        *subpart.Division
	sc         *shortcut.Shortcut
	mode       routerMode
	vals       []congest.Val
	f          congest.Combine
	det        bool
	delayRange int64 // randomized: parts delayed by hash(part) mod delayRange
	verifyAt   int64 // verify mode: round at which uncovered nodes complain
	castSeed   int64
}

// partDelay derives the part's start delay from its ID (all members compute
// it identically with no communication).
func (cfg *routerConfig) partDelay(partID int64) int64 {
	if cfg.delayRange <= 1 {
		return 0
	}
	x := uint64(partID) ^ uint64(cfg.castSeed)*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	return int64(x % uint64(cfg.delayRange))
}

// queued is one message waiting on a port. pri1 is the block-root depth
// the deterministic rule orders by first (then part ID msg.A, then seq); the
// randomized variant pops FIFO and leaves it zero.
type queued struct {
	pri1 int64
	seq  int64
	msg  congest.Message
}

// portQueue is one port's pending messages: items[head:] are queued, and a
// pop advances head instead of shifting the slice. A drained queue resets
// to empty so its capacity is reused.
type portQueue struct {
	port  int
	head  int
	items []queued
}

// partRec is what a node knows about one part whose token, beacons, acks,
// aggregates or result have reached it.
type partRec struct {
	id          int64
	informed    bool // token adopted (or originated at the leader)
	via         int  // first-receipt port; -1 at the origin
	pendingAcks int  // tokens offered and not yet answered
	aggWait     int  // adopted children whose AGG has not arrived
	agg         congest.Val
	aggHas      bool
	aggSent     bool  // sealed: AGG sent up, or RESULT started at the origin
	beaconFwd   bool  // beacon relayed rootward
	resultSeen  bool  // RESULT pushed to the children
	sentPorts   []int // ports the token was offered on, each at most once
	beaconPorts []int // ports a beacon arrived on
	children    []int // ports whose neighbor adopted the token from here
}

// routerRun is the router phase's shared state machine: one backing array
// of per-node records, stepped through the node index — no per-node proc
// objects or closures. An Engine keeps one and reuses it, with every
// record's slices, across router runs; a run's results are read before the
// next run starts.
type routerRun struct {
	nodes []routerProc
}

// Step implements congest.NodeProc.
func (r *routerRun) Step(ctx *congest.Ctx, v int) bool { return r.nodes[v].step(ctx) }

// routerProc is one node's router state (a record in routerRun's backing
// array, not an individually allocated proc). A node sees at most its
// congestion's worth of parts, so its part records stay few.
type routerProc struct {
	cfg    *routerConfig
	v      int
	myPart int64

	treePorts []int // sub-part tree ports (parent + children)
	exitPorts []int // same-part ports leaving my sub-part

	queues  []portQueue // ascending port; a used port keeps its (empty) queue
	busy    int         // queues with messages waiting
	seq     int64
	started bool
	delay   int64

	parts []partRec // ascending part ID
	open  int       // informed parts not yet sealed

	ownVal     congest.Val
	complained bool

	gotResult bool
	result    congest.Val
}

// reset refills one routerRun record in place for a new run, keeping the
// capacity of every slice it owns.
func (p *routerProc) reset(cfg *routerConfig, v int) {
	*p = routerProc{
		cfg:       cfg,
		v:         v,
		myPart:    cfg.in.LeaderID[v],
		treePorts: p.treePorts[:0],
		exitPorts: p.exitPorts[:0],
		queues:    p.queues[:0],
		parts:     p.parts[:0],
	}
	if cfg.mode == modeSolve {
		p.ownVal = cfg.vals[v]
	}
	div := cfg.div
	if pp := div.ParentPort[v]; pp >= 0 {
		p.treePorts = append(p.treePorts, pp)
	}
	p.treePorts = append(p.treePorts, div.ChildPorts[v]...)
	same := cfg.in.SameRow(v)
	sub := div.SameSubRow(v)
	for q := range same {
		if same[q] && !sub[q] {
			p.exitPorts = append(p.exitPorts, q)
		}
	}
	p.delay = cfg.partDelay(p.myPart)
}

// insertAt grows s by one and opens slot k. The spare slot past the old
// length (left over from an earlier run) rotates into k, so the slices it
// owns are reused rather than shared with a neighbor.
func insertAt[T any](s []T, k int) []T {
	if len(s) < cap(s) {
		s = s[:len(s)+1]
	} else {
		var zero T
		s = append(s, zero)
	}
	last := len(s) - 1
	spare := s[last]
	copy(s[k+1:], s[k:last])
	s[k] = spare
	return s
}

// searchPart returns the index of part i's record, or where it belongs.
func (p *routerProc) searchPart(i int64) (int, bool) {
	lo, hi := 0, len(p.parts)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if p.parts[mid].id < i {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(p.parts) && p.parts[lo].id == i
}

// lookup returns part i's record, or nil if the node has not seen part i.
func (p *routerProc) lookup(i int64) *partRec {
	if k, ok := p.searchPart(i); ok {
		return &p.parts[k]
	}
	return nil
}

// record returns part i's record, creating it if needed. The pointer is
// valid until the next record is created.
func (p *routerProc) record(i int64) *partRec {
	k, ok := p.searchPart(i)
	if !ok {
		p.parts = insertAt(p.parts, k)
		r := &p.parts[k]
		*r = partRec{
			id:          i,
			sentPorts:   r.sentPorts[:0],
			beaconPorts: r.beaconPorts[:0],
			children:    r.children[:0],
		}
	}
	return &p.parts[k]
}

// queue returns port's queue, creating it if needed.
func (p *routerProc) queue(port int) *portQueue {
	lo, hi := 0, len(p.queues)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if p.queues[mid].port < port {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(p.queues) || p.queues[lo].port != port {
		p.queues = insertAt(p.queues, lo)
		q := &p.queues[lo]
		*q = portQueue{port: port, items: q.items[:0]}
	}
	return &p.queues[lo]
}

// enqueue schedules a message on a port. Only the deterministic rule needs
// the part's block-root depth.
func (p *routerProc) enqueue(port int, m congest.Message) {
	var pri1 int64
	if p.cfg.det {
		if meta, ok := p.cfg.sc.Meta[p.v][m.A]; ok {
			pri1 = meta.RootDepth
		}
	}
	q := p.queue(port)
	if q.head == len(q.items) {
		p.busy++
	}
	q.items = append(q.items, queued{pri1: pri1, seq: p.seq, msg: m})
	p.seq++
}

// flush sends at most one queued message per port, in ascending port order,
// picking FIFO (randomized) or by lessKey (deterministic), and reports
// whether any queue still has work. A port that cannot send keeps its queue.
func (p *routerProc) flush(ctx *congest.Ctx) bool {
	left := p.busy
	for k := 0; left > 0; k++ {
		q := &p.queues[k]
		if q.head == len(q.items) {
			continue
		}
		left--
		if !ctx.CanSend(q.port) {
			continue
		}
		if p.cfg.det {
			// Keys are unique (seq), so the pick does not depend on the
			// order of the rest: swap the best to the head and pop it.
			best := q.head
			for j := q.head + 1; j < len(q.items); j++ {
				if lessKey(q.items[j], q.items[best]) {
					best = j
				}
			}
			q.items[q.head], q.items[best] = q.items[best], q.items[q.head]
		}
		ctx.Send(q.port, q.items[q.head].msg)
		q.head++
		if q.head == len(q.items) {
			q.head, q.items = 0, q.items[:0]
			p.busy--
		}
	}
	return p.busy > 0
}

// lessKey is Lemma 4.2's deterministic order: shallowest block root, then
// part ID, then arrival.
func lessKey(a, b queued) bool {
	if a.pri1 != b.pri1 {
		return a.pri1 < b.pri1
	}
	if a.msg.A != b.msg.A {
		return a.msg.A < b.msg.A
	}
	return a.seq < b.seq
}

// sendToken offers part r.id's token on port q at most once.
func (p *routerProc) sendToken(r *partRec, q int) {
	for _, s := range r.sentPorts {
		if s == q {
			return
		}
	}
	r.sentPorts = append(r.sentPorts, q)
	r.pendingAcks++
	p.enqueue(q, congest.Message{Kind: kToken, A: r.id})
}

// spread performs the forwarding a node owes after adopting part r.id's
// token: members flood their sub-part tree and exit edges (Algorithm 1
// lines 13-18); nodes on the part's block relay rootward and serve beacon
// paths.
func (p *routerProc) spread(r *partRec, via int) {
	cfg := p.cfg
	i := r.id
	if i == p.myPart {
		for _, q := range p.treePorts {
			if q != via {
				p.sendToken(r, q)
			}
		}
		for _, q := range p.exitPorts {
			if q != via {
				p.sendToken(r, q)
			}
		}
	}
	if cfg.sc.OnBlock(p.v, i) {
		if cfg.sc.HasUp(p.v, i) {
			if pp := cfg.eng.Tree.ParentPort[p.v]; pp >= 0 && pp != via {
				p.sendToken(r, pp)
			}
		}
		for _, q := range r.beaconPorts {
			if q != via {
				p.sendToken(r, q)
			}
		}
	}
}

// adopt marks part r.id informed via port via (-1 at the origin).
func (p *routerProc) adopt(r *partRec, via int) {
	r.informed, r.via = true, via
	p.open++
}

// startActions fires once the part's delay expires: the leader originates
// its token; representatives of shortcut-using sub-parts lay beacons.
func (p *routerProc) startActions() {
	cfg := p.cfg
	if cfg.in.IsLeader[p.v] {
		r := p.record(p.myPart)
		p.adopt(r, -1)
		p.spread(r, -1)
	}
	if cfg.div.IsRep[p.v] && !cfg.div.WholePart[p.v] && cfg.sc.HasUp(p.v, p.myPart) {
		if r := p.lookup(p.myPart); r == nil || !r.beaconFwd {
			if pp := cfg.eng.Tree.ParentPort[p.v]; pp >= 0 {
				p.record(p.myPart).beaconFwd = true
				p.enqueue(pp, congest.Message{Kind: kBeacon, A: p.myPart})
			}
		}
	}
}

func (p *routerProc) handle(in congest.Incoming) {
	cfg := p.cfg
	i := in.Msg.A
	if in.Msg.Kind == kComplain {
		// A same-part neighbor did not receive the token (verify mode):
		// record the complaint in this node's contributed bit.
		p.ownVal = congest.OrPair(p.ownVal, congest.Val{A: 1})
		return
	}
	r := p.record(i)
	switch in.Msg.Kind {
	case kToken:
		if r.informed {
			p.enqueue(in.Port, congest.Message{Kind: kAckDecline, A: i})
			return
		}
		p.adopt(r, in.Port)
		p.enqueue(in.Port, congest.Message{Kind: kAckAdopt, A: i})
		p.spread(r, in.Port)
	case kBeacon:
		known := false
		for _, q := range r.beaconPorts {
			if q == in.Port {
				known = true
			}
		}
		if !known {
			r.beaconPorts = append(r.beaconPorts, in.Port)
		}
		// Serve the beacon now if the token already passed through and the
		// aggregate has not been sealed (a post-seal adoption would orphan
		// the new child's aggregate; such terminals are reached by the
		// intra-part flood instead).
		if r.informed && !r.aggSent {
			p.sendToken(r, in.Port)
		}
		if cfg.sc.HasUp(p.v, i) && !r.beaconFwd {
			if pp := cfg.eng.Tree.ParentPort[p.v]; pp >= 0 {
				r.beaconFwd = true
				p.enqueue(pp, congest.Message{Kind: kBeacon, A: i})
			}
		}
	case kAckAdopt:
		r.pendingAcks--
		r.children = append(r.children, in.Port)
		r.aggWait++
	case kAckDecline:
		r.pendingAcks--
	case kAgg:
		val := congest.Val{A: in.Msg.B, B: in.Msg.C}
		if r.aggHas {
			r.agg = cfg.f(r.agg, val)
		} else {
			r.agg, r.aggHas = val, true
		}
		r.aggWait--
	case kAggEmpty:
		r.aggWait--
	case kResult:
		if p.forwardResult(r, congest.Val{A: in.Msg.B, B: in.Msg.C}) && i == p.myPart {
			p.gotResult = true
			p.result = congest.Val{A: in.Msg.B, B: in.Msg.C}
		}
	}
}

// forwardResult pushes a result down the adopted subtree once; reports
// whether this was the first receipt.
func (p *routerProc) forwardResult(r *partRec, val congest.Val) bool {
	if r.resultSeen {
		return false
	}
	r.resultSeen = true
	for _, q := range r.children {
		p.enqueue(q, congest.Message{Kind: kResult, A: r.id, B: val.A, C: val.B})
	}
	return true
}

// tryComplete seals aggregates whose subtrees have fully reported, in
// ascending part ID: interior nodes send AGG up their adoption port; the
// origin (leader) computes the final value and starts the RESULT broadcast.
// It costs nothing while no part is open.
func (p *routerProc) tryComplete(round int64) {
	cfg := p.cfg
	left := p.open
	for k := 0; left > 0; k++ {
		r := &p.parts[k]
		if !r.informed || r.aggSent {
			continue
		}
		left--
		if r.pendingAcks != 0 || r.aggWait != 0 {
			continue
		}
		i := r.id
		if i == p.myPart && cfg.mode == modeVerify && round < cfg.verifyAt+2 {
			continue // complaints may still be en route
		}
		total := r.agg
		has := r.aggHas
		if i == p.myPart {
			if has {
				total = cfg.f(total, p.ownVal)
			} else {
				total = p.ownVal
				has = true
			}
		}
		r.aggSent = true
		p.open--
		if r.via >= 0 {
			if has {
				p.enqueue(r.via, congest.Message{Kind: kAgg, A: i, B: total.A, C: total.B})
			} else {
				p.enqueue(r.via, congest.Message{Kind: kAggEmpty, A: i})
			}
		} else {
			// Origin: total = f(P_i); distribute it.
			p.gotResult = true
			p.result = total
			p.forwardResult(r, total)
		}
	}
}

// step runs one round of this node's router record.
func (p *routerProc) step(ctx *congest.Ctx) bool {
	cfg := p.cfg
	round := ctx.Round()
	if round == 0 {
		// Every node steps in round 0: set the timers for the rounds whose
		// logic depends on the clock alone, so no wait spins.
		if p.delay > 0 {
			ctx.WakeAt(p.delay)
		}
		if cfg.mode == modeVerify {
			ctx.WakeAt(cfg.verifyAt)
			ctx.WakeAt(cfg.verifyAt + 2)
		}
	}
	if !p.started && round >= p.delay {
		p.started = true
		p.startActions()
	}
	ctx.ForRecv(func(_ int, in congest.Incoming) {
		p.handle(in)
	})
	if cfg.mode == modeVerify && round == cfg.verifyAt && !p.complained {
		p.complained = true
		if r := p.lookup(p.myPart); r == nil || !r.informed {
			for q, ok := range cfg.in.SameRow(p.v) {
				if ok {
					p.enqueue(q, congest.Message{Kind: kComplain, A: p.myPart})
				}
			}
		}
	}
	p.tryComplete(round)
	return p.flush(ctx)
}

// runRouter executes one router phase over the whole network on the
// Engine's reused records and returns the run for result extraction, which
// must finish before the Engine's next router run.
func runRouter(cfg *routerConfig, name string, budget int64) (*routerRun, error) {
	e := cfg.eng
	r := &e.router
	if len(r.nodes) != e.N {
		r.nodes = make([]routerProc, e.N)
	}
	for v := range r.nodes {
		r.nodes[v].reset(cfg, v)
	}
	_, err := e.Net.RunNodes(name, r, budget)
	return r, err
}
