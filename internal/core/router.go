package core

import (
	"fmt"
	"slices"

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
// Node state is flat. An Infra's sealed part table (internal/shortcut)
// gives each node a static view (routerView), rebuilt only when the table
// changes, never per run: its own part merged with its table's parts,
// ascending by ID, with the flags the router reads per message, plus its
// forwarding ports and start delay. The node's part records line up with
// that run by index, so finding a message's record is one binary search
// over a compact key run, and no record is created mid-run; a message for a
// part outside the run can only come from an unmirrored claim, and fails
// the phase. Port queues are indexed by port. Every walk (sealing in tryComplete, sending in flush) runs in
// ascending order, which is the order the schedule — and so every
// Rounds/Messages figure — is pinned to. A node with nothing to send parks:
// the engine steps it only when a message arrives or one of its clock waits
// ends — its part's start delay, and in verify mode the complaint round
// verifyAt and the seal gate at verifyAt+2. Those are congest timers
// (Ctx.WakeAt), one pending per node: each is set in the round the previous
// wait ends. The Engine reuses the records, the queues and their slices
// from one router run to the next; a run clears only their mutable state.

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
	view       *routerView
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
	head  int
	items []queued
}

// routerView is an Infra's static router state, built from its sealed part
// table: each node's run of part records — its own part merged with the
// parts of its shortcut table, ascending by ID — with the flags the router
// reads per message, plus its forwarding ports and start delay.
type routerView struct {
	sc     *shortcut.Shortcut
	epoch  uint64 // sc's epoch the runs were built from
	budget int64  // Infra.Budget the delays were derived under
	row    []int32
	keys   []int64   // node v's part IDs are keys[row[v]:row[v+1]]
	stat   []recStat // aligned with keys
	own    []int32   // index of the node's own part within its run
	fwdRow []int32   // node v's forwarding ports are fwd[fwdRow[v]:fwdRow[v+1]]
	fwd    []int     // sub-part tree ports (parent, children), then exit ports
	delay  []int64   // the own part's start delay
}

// recStat is what a node knows statically about one part of its run.
type recStat struct {
	up      bool  // the node's parent edge is in the part's shortcut
	onBlock bool  // the part's shortcut touches the node
	depth   int64 // block-root depth, or 0 without block metadata
}

// routerView returns the Infra's router view. The forwarding ports depend
// on the partition and the division alone and are built once; the runs and
// the delays are rebuilt, in place, when the part table or the budget
// changed since the last build.
func (inf *Infra) routerView(cfg *routerConfig) *routerView {
	sc, n := inf.SC, cfg.eng.N
	w := inf.view
	if w == nil {
		w = &routerView{row: make([]int32, n+1), own: make([]int32, n), fwdRow: make([]int32, n+1), delay: make([]int64, n)}
		for v := 0; v < n; v++ {
			if pp := cfg.div.ParentPort[v]; pp >= 0 {
				w.fwd = append(w.fwd, pp)
			}
			w.fwd = append(w.fwd, cfg.div.ChildPorts[v]...)
			sub := cfg.div.SameSubRow(v)
			for q, same := range cfg.in.SameRow(v) {
				if same && !sub[q] {
					w.fwd = append(w.fwd, q)
				}
			}
			w.fwdRow[v+1] = int32(len(w.fwd))
		}
		inf.view = w
	} else if w.sc == sc && w.epoch == sc.Epoch() && w.budget == inf.Budget {
		return w
	}
	w.sc, w.epoch, w.budget = sc, sc.Epoch(), inf.Budget
	w.keys, w.stat = slices.Grow(w.keys[:0], n+sc.Len()), slices.Grow(w.stat[:0], n+sc.Len())
	for v := 0; v < n; v++ {
		my := cfg.in.LeaderID[v]
		parts, ents := sc.Node(v)
		k, found := slices.BinarySearch(parts, my)
		w.own[v] = int32(k)
		for j := 0; j <= len(parts); j++ {
			if j == k && !found {
				w.keys, w.stat = append(w.keys, my), append(w.stat, recStat{})
			}
			if j < len(parts) {
				w.keys = append(w.keys, parts[j])
				w.stat = append(w.stat, recStat{up: ents[j].Up, onBlock: true, depth: ents[j].Meta.RootDepth})
			}
		}
		w.row[v+1] = int32(len(w.keys))
		w.delay[v] = cfg.partDelay(my)
	}
	return w
}

// partRec is a node's per-run state for one part of its run.
type partRec struct {
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
	nodes  []routerProc
	recs   []partRec   // aligned with the view's keys
	qrow   []int32     // the graph's CSR RowStart
	queues []portQueue // one per port: node v's are queues[qrow[v]:qrow[v+1]]
}

// Step implements congest.NodeProc.
func (r *routerRun) Step(ctx *congest.Ctx, v int) bool { return r.nodes[v].step(ctx) }

// routerProc is one node's router state (a record in routerRun's backing
// array, not an individually allocated proc). Its slices are the node's
// windows on the view and on the run's records and port queues.
type routerProc struct {
	cfg  *routerConfig
	v    int
	own  int // index of the own part in keys
	keys []int64
	stat []recStat
	recs []partRec
	fwd  []int

	queues []portQueue // indexed by port
	busy   int         // queues with messages waiting
	seq    int64
	delay  int64
	open   int // informed parts not yet sealed

	started    bool
	complained bool
	gotResult  bool
	ownVal     congest.Val
	result     congest.Val
	err        error // a message for a part outside the node's run
}

// reset points one routerRun record at node v's windows for a new run and
// clears their mutable state, keeping the capacity of every slice.
func (p *routerProc) reset(cfg *routerConfig, r *routerRun, v int) {
	w := cfg.view
	queues := r.queues[r.qrow[v]:r.qrow[v+1]]
	if p.busy > 0 { // an aborted run left messages queued
		for k := range queues {
			queues[k] = portQueue{items: queues[k].items[:0]}
		}
	}
	lo, hi := w.row[v], w.row[v+1]
	recs := r.recs[lo:hi]
	for k := range recs {
		x := &recs[k]
		*x = partRec{sentPorts: x.sentPorts[:0], beaconPorts: x.beaconPorts[:0], children: x.children[:0]}
	}
	*p = routerProc{
		cfg: cfg, v: v, own: int(w.own[v]),
		keys: w.keys[lo:hi], stat: w.stat[lo:hi], recs: recs,
		fwd: w.fwd[w.fwdRow[v]:w.fwdRow[v+1]], queues: queues, delay: w.delay[v],
	}
	if cfg.mode == modeSolve {
		p.ownVal = cfg.vals[v]
	}
}

// enqueue schedules a message for record k's part on a port. Only the
// deterministic rule needs the part's block-root depth.
func (p *routerProc) enqueue(port, k int, m congest.Message) {
	var pri1 int64
	if p.cfg.det {
		pri1 = p.stat[k].depth
	}
	q := &p.queues[port]
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
	for port := 0; left > 0; port++ {
		q := &p.queues[port]
		if q.head == len(q.items) {
			continue
		}
		left--
		if !ctx.CanSend(port) {
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
		ctx.Send(port, q.items[q.head].msg)
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

// sendToken offers record k's token on port q at most once.
func (p *routerProc) sendToken(k, q int) {
	r := &p.recs[k]
	if slices.Contains(r.sentPorts, q) {
		return
	}
	r.sentPorts = append(r.sentPorts, q)
	r.pendingAcks++
	p.enqueue(q, k, congest.Message{Kind: kToken, A: p.keys[k]})
}

// spread performs the forwarding a node owes after adopting record k's
// token: members flood their sub-part tree and exit edges (Algorithm 1
// lines 13-18); nodes on the part's block relay rootward and serve beacon
// paths.
func (p *routerProc) spread(k, via int) {
	if k == p.own {
		for _, q := range p.fwd {
			if q != via {
				p.sendToken(k, q)
			}
		}
	}
	if st := p.stat[k]; st.onBlock {
		if st.up {
			if pp := p.cfg.eng.Tree.ParentPort[p.v]; pp >= 0 && pp != via {
				p.sendToken(k, pp)
			}
		}
		for _, q := range p.recs[k].beaconPorts {
			if q != via {
				p.sendToken(k, q)
			}
		}
	}
}

// adopt marks record k informed via port via (-1 at the origin).
func (p *routerProc) adopt(k, via int) {
	p.recs[k].informed, p.recs[k].via = true, via
	p.open++
}

// startActions fires once the part's delay expires: the leader originates
// its token; representatives of shortcut-using sub-parts lay beacons.
func (p *routerProc) startActions() {
	cfg := p.cfg
	if cfg.in.IsLeader[p.v] {
		p.adopt(p.own, -1)
		p.spread(p.own, -1)
	}
	if r := &p.recs[p.own]; cfg.div.IsRep[p.v] && !cfg.div.WholePart[p.v] && p.stat[p.own].up && !r.beaconFwd {
		if pp := cfg.eng.Tree.ParentPort[p.v]; pp >= 0 {
			r.beaconFwd = true
			p.enqueue(pp, p.own, congest.Message{Kind: kBeacon, A: p.keys[p.own]})
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
	k, ok := slices.BinarySearch(p.keys, i)
	if !ok {
		// Only a claim its far end never recorded can route a part here.
		if p.err == nil {
			p.err = fmt.Errorf("core: node %d received a message for part %d outside its part table", p.v, i)
		}
		return
	}
	r := &p.recs[k]
	switch in.Msg.Kind {
	case kToken:
		if r.informed {
			p.enqueue(in.Port, k, congest.Message{Kind: kAckDecline, A: i})
			return
		}
		p.adopt(k, in.Port)
		p.enqueue(in.Port, k, congest.Message{Kind: kAckAdopt, A: i})
		p.spread(k, in.Port)
	case kBeacon:
		if !slices.Contains(r.beaconPorts, in.Port) {
			r.beaconPorts = append(r.beaconPorts, in.Port)
		}
		// Serve the beacon now if the token already passed through and the
		// aggregate has not been sealed (a post-seal adoption would orphan
		// the new child's aggregate; such terminals are reached by the
		// intra-part flood instead).
		if r.informed && !r.aggSent {
			p.sendToken(k, in.Port)
		}
		if p.stat[k].up && !r.beaconFwd {
			if pp := cfg.eng.Tree.ParentPort[p.v]; pp >= 0 {
				r.beaconFwd = true
				p.enqueue(pp, k, congest.Message{Kind: kBeacon, A: i})
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
		if p.forwardResult(k, congest.Val{A: in.Msg.B, B: in.Msg.C}) && k == p.own {
			p.gotResult = true
			p.result = congest.Val{A: in.Msg.B, B: in.Msg.C}
		}
	}
}

// forwardResult pushes a result down record k's adopted subtree once;
// reports whether this was the first receipt.
func (p *routerProc) forwardResult(k int, val congest.Val) bool {
	r := &p.recs[k]
	if r.resultSeen {
		return false
	}
	r.resultSeen = true
	for _, q := range r.children {
		p.enqueue(q, k, congest.Message{Kind: kResult, A: p.keys[k], B: val.A, C: val.B})
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
		r := &p.recs[k]
		if !r.informed || r.aggSent {
			continue
		}
		left--
		if r.pendingAcks != 0 || r.aggWait != 0 {
			continue
		}
		if k == p.own && cfg.mode == modeVerify && round < cfg.verifyAt+2 {
			continue // complaints may still be en route
		}
		total := r.agg
		has := r.aggHas
		if k == p.own {
			if has {
				total = cfg.f(total, p.ownVal)
			} else {
				total = p.ownVal
				has = true
			}
		}
		r.aggSent = true
		p.open--
		i := p.keys[k]
		if r.via >= 0 {
			if has {
				p.enqueue(r.via, k, congest.Message{Kind: kAgg, A: i, B: total.A, C: total.B})
			} else {
				p.enqueue(r.via, k, congest.Message{Kind: kAggEmpty, A: i})
			}
		} else {
			// Origin: total = f(P_i); distribute it.
			p.gotResult = true
			p.result = total
			p.forwardResult(k, total)
		}
	}
}

// step runs one round of this node's router record.
func (p *routerProc) step(ctx *congest.Ctx) bool {
	cfg := p.cfg
	round := ctx.Round()
	// Clock waits are chained, one timer pending at a time: every node
	// steps in round 0 and sets the first, and the round a wait ends sets
	// the next — the part's start delay, then in verify mode the complaint
	// round verifyAt and the seal gate verifyAt+2.
	switch {
	case round == 0 && p.delay > 0:
		ctx.WakeAt(p.delay)
	case cfg.mode != modeVerify:
	case round == p.delay:
		ctx.WakeAt(cfg.verifyAt)
	case round == cfg.verifyAt:
		ctx.WakeAt(cfg.verifyAt + 2)
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
		if !p.recs[p.own].informed {
			for q, ok := range cfg.in.SameRow(p.v) {
				if ok {
					p.enqueue(q, p.own, congest.Message{Kind: kComplain, A: p.keys[p.own]})
				}
			}
		}
	}
	p.tryComplete(round)
	return p.flush(ctx)
}

// runRouter executes one router phase over the whole network on the
// Engine's reused records and returns the run for result extraction, which
// must finish before the Engine's next router run. A node that received a
// message for a part outside its run fails the phase.
func runRouter(cfg *routerConfig, name string, budget int64) (*routerRun, error) {
	e := cfg.eng
	r := &e.router
	if len(r.nodes) != e.N {
		r.nodes = make([]routerProc, e.N)
		r.qrow = e.Net.Graph().CSR().RowStart
		r.queues = make([]portQueue, r.qrow[e.N])
	}
	if n := len(cfg.view.keys); n > cap(r.recs) {
		r.recs = append(r.recs[:cap(r.recs)], make([]partRec, n-cap(r.recs))...)
	} else {
		r.recs = r.recs[:n]
	}
	for v := range r.nodes {
		r.nodes[v].reset(cfg, r, v)
	}
	_, err := e.Net.RunNodes(name, r, budget)
	for v := range r.nodes {
		if r.nodes[v].err != nil {
			return r, r.nodes[v].err
		}
	}
	return r, err
}
