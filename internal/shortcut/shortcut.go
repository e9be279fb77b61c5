package shortcut

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"shortcutpa/internal/congest"
	"shortcutpa/internal/part"
	"shortcutpa/internal/tree"
)

const kindBlockSetup int32 = 70

// BlockMeta is what a node on a block knows about the block after setup.
type BlockMeta struct {
	RootDepth int64
	RootID    int64
}

// Shortcut is a T-restricted shortcut held as node-local knowledge: one
// part table per node. Parts are identified by their leader IDs.
//
// Node v's table is a run of entries sorted by part ID, one for each part i
// whose shortcut H_i touches v. The runs are stored back to back (CSR), so a
// lookup is one binary search and the table holds no per-node maps.
// Construction protocols log their claims per node (ClaimUp, AddDownPort)
// from inside a phase; Seal merges the logs into the table, and every query
// reads the sealed table only.
type Shortcut struct {
	T *tree.BFSTree

	row   []int32   // node v's entries are [row[v], row[v+1])
	parts []int64   // part IDs, ascending within each node's run
	ents  []Entry   // aligned with parts
	down  []int     // down-port runs, ascending; see Entry.lo/hi
	log   [][]claim // per node: claims not yet sealed
	epoch uint64
}

// Entry is what node v's table holds about one part i.
type Entry struct {
	Up      bool // v's parent tree edge is in H_i
	HasMeta bool // SetupBlocks filled Meta
	Meta    BlockMeta
	lo, hi  int32 // v's ports to children c with (c,v) in H_i: down[lo:hi]
}

// claim is one logged ClaimUp (port -1) or AddDownPort.
type claim struct {
	part int64
	port int
}

// New returns an empty shortcut over t.
func New(t *tree.BFSTree, n int) *Shortcut {
	return &Shortcut{T: t, row: make([]int32, n+1), log: make([][]claim, n)}
}

// ClaimUp logs that v's parent edge belongs to part i's shortcut
// (construction-side, called by the claiming protocols at v).
func (s *Shortcut) ClaimUp(v int, i int64) { s.log[v] = append(s.log[v], claim{i, -1}) }

// AddDownPort logs at v that the child edge behind port q carries part i
// (construction-side, called when a claim arrives at v).
func (s *Shortcut) AddDownPort(v int, i int64, q int) { s.log[v] = append(s.log[v], claim{i, q}) }

// Seal merges the logged claims into the table (a repeated claim counts
// once) and clears the logs. It is a no-op when nothing is logged.
func (s *Shortcut) Seal() {
	pending := 0
	for _, l := range s.log {
		pending += len(l)
	}
	if pending == 0 {
		return
	}
	row := make([]int32, len(s.row))
	parts := make([]int64, 0, len(s.parts)+pending)
	ents := make([]Entry, 0, cap(parts))
	down := make([]int, 0, len(s.down)+pending)
	for v, l := range s.log {
		slices.SortFunc(l, func(a, b claim) int { return cmp.Compare(a.part, b.part) })
		k, hi := int(s.row[v]), int(s.row[v+1])
		for j := 0; k < hi || j < len(l); {
			i := int64(math.MaxInt64)
			if k < hi {
				i = s.parts[k]
			}
			if j < len(l) {
				i = min(i, l[j].part)
			}
			lo := len(down)
			var e Entry
			if k < hi && s.parts[k] == i {
				e = s.ents[k]
				down = append(down, s.down[e.lo:e.hi]...)
				k++
			}
			for ; j < len(l) && l[j].part == i; j++ {
				if l[j].port < 0 {
					e.Up = true
				} else {
					down = append(down, l[j].port)
				}
			}
			slices.Sort(down[lo:])
			down = down[:lo+len(slices.Compact(down[lo:]))]
			e.lo, e.hi = int32(lo), int32(len(down))
			parts, ents = append(parts, i), append(ents, e)
		}
		s.log[v] = l[:0]
		row[v+1] = int32(len(parts))
	}
	s.row, s.parts, s.ents, s.down = row, parts, ents, down
	s.epoch++
}

// Epoch counts the changes to the sealed table (Seal merging claims,
// SetupBlocks filling metadata, DropPart), so a view derived from the table
// can tell whether it is current.
func (s *Shortcut) Epoch() uint64 { return s.epoch }

// Len returns the number of entries in the sealed table.
func (s *Shortcut) Len() int { return len(s.parts) }

// Node returns v's sealed table: its part IDs, ascending, and the aligned
// entries. The slices alias the table.
func (s *Shortcut) Node(v int) ([]int64, []Entry) {
	lo, hi := s.row[v], s.row[v+1]
	return s.parts[lo:hi], s.ents[lo:hi]
}

// entry returns v's entry for part i, or nil if H_i does not touch v.
func (s *Shortcut) entry(v int, i int64) *Entry {
	parts, ents := s.Node(v)
	if k, ok := slices.BinarySearch(parts, i); ok {
		return &ents[k]
	}
	return nil
}

// HasUp reports whether v's parent edge is in part i's shortcut.
func (s *Shortcut) HasUp(v int, i int64) bool {
	e := s.entry(v, i)
	return e != nil && e.Up
}

// DownPorts returns v's ports to children c with (c,v) in H_i, ascending.
func (s *Shortcut) DownPorts(v int, i int64) []int {
	if e := s.entry(v, i); e != nil {
		return s.down[e.lo:e.hi]
	}
	return nil
}

// OnBlock reports whether v touches part i's shortcut (v in V(H_i)): every
// entry comes from an up-claim or a down-port.
func (s *Shortcut) OnBlock(v int, i int64) bool { return s.entry(v, i) != nil }

// IsBlockRoot reports whether v is the root of part i's block through v:
// on the block, but the parent edge is not in H_i.
func (s *Shortcut) IsBlockRoot(v int, i int64) bool {
	e := s.entry(v, i)
	return e != nil && !e.Up
}

// DropPart removes the given parts' claims everywhere (used between
// construction repetitions when unverified parts' claims are discarded;
// each node forgets its local entries). ids must be ascending.
func (s *Shortcut) DropPart(ids ...int64) {
	if len(ids) == 0 {
		return
	}
	s.Seal()
	w, dw, k := 0, 0, 0
	for v := 1; v < len(s.row); v++ {
		for hi := int(s.row[v]); k < hi; k++ {
			if _, drop := slices.BinarySearch(ids, s.parts[k]); drop {
				continue
			}
			e := s.ents[k]
			e.lo, e.hi = int32(dw), int32(dw+copy(s.down[dw:], s.down[e.lo:e.hi]))
			dw = int(e.hi)
			s.parts[w], s.ents[w] = s.parts[k], e
			w++
		}
		s.row[v] = int32(w)
	}
	s.parts, s.ents, s.down = s.parts[:w], s.ents[:w], s.down[:dw]
	s.epoch++
}

// SetupBlocks distributes (root depth, root ID) through every block: each
// block root starts a downward pass along its block's edges; nodes record
// the metadata and forward along their own down-ports for that part. An
// edge carries one setup message per part using it, scheduled one per round
// (FIFO), so the pass takes O(D + congestion) rounds and Σ_i |H_i| = Õ(n)
// messages.
func SetupBlocks(net *congest.Network, s *Shortcut, maxRounds int64) error {
	s.Seal()
	n := net.N()
	sp := &setupProc{s: s, queues: make([][]setupQueue, n), busy: make([]int, n)}
	_, err := net.RunNodes("shortcut/setup", sp, maxRounds)
	s.epoch++
	return err
}

// setupProc drives the block-setup pass: per-(node, port) FIFO queues of
// pending setup messages, one send per port per round. Shared across nodes;
// queues[v] is node v's queues in ascending port order and busy[v] counts
// those with messages waiting.
type setupProc struct {
	s      *Shortcut
	queues [][]setupQueue
	busy   []int
}

// setupQueue is one port's FIFO: items[head:] wait, and a pop advances head
// instead of shifting the slice.
type setupQueue struct {
	port  int
	head  int
	items []congest.Message
}

// Step implements congest.NodeProc.
func (p *setupProc) Step(ctx *congest.Ctx, v int) bool {
	s := p.s
	if ctx.Round() == 0 {
		// Block roots (on the block, no up-claim) start the downward pass;
		// block leaves (up-claim only) wait to hear from above. Parts are
		// visited in table order, ascending, for deterministic scheduling.
		parts, ents := s.Node(v)
		for k, i := range parts {
			if e := &ents[k]; !e.Up {
				e.Meta, e.HasMeta = BlockMeta{RootDepth: int64(s.T.Depth[v]), RootID: ctx.ID()}, true
				p.forward(v, i, e)
			}
		}
	}
	ctx.ForRecv(func(_ int, m congest.Incoming) {
		if m.Msg.Kind != kindBlockSetup {
			return
		}
		e := s.entry(v, m.Msg.A)
		if e == nil || e.HasMeta {
			return
		}
		e.Meta, e.HasMeta = BlockMeta{RootDepth: m.Msg.B, RootID: m.Msg.C}, true
		p.forward(v, m.Msg.A, e)
	})
	return p.flush(ctx, v)
}

// forward queues part i's block metadata on each of v's down-ports for i.
func (p *setupProc) forward(v int, i int64, e *Entry) {
	for _, q := range p.s.down[e.lo:e.hi] {
		p.enqueue(v, q, congest.Message{Kind: kindBlockSetup, A: i, B: e.Meta.RootDepth, C: e.Meta.RootID})
	}
}

func (p *setupProc) enqueue(v, port int, m congest.Message) {
	qs := p.queues[v]
	k := sort.Search(len(qs), func(k int) bool { return qs[k].port >= port })
	if k == len(qs) || qs[k].port != port {
		qs = slices.Insert(qs, k, setupQueue{port: port})
		p.queues[v] = qs
	}
	q := &qs[k]
	if q.head == len(q.items) {
		p.busy[v]++
	}
	q.items = append(q.items, m)
}

// flush sends one queued message per port (ascending port order for
// determinism) and reports whether work remains.
func (p *setupProc) flush(ctx *congest.Ctx, v int) bool {
	qs := p.queues[v]
	left := p.busy[v]
	for k := 0; left > 0; k++ {
		q := &qs[k]
		if q.head == len(q.items) {
			continue
		}
		left--
		if !ctx.CanSend(q.port) {
			continue
		}
		ctx.Send(q.port, q.items[q.head])
		q.head++
		if q.head == len(q.items) {
			q.head, q.items = 0, q.items[:0]
			p.busy[v]--
		}
	}
	return p.busy[v] > 0
}

// forUp calls fn for every up-claim (v, i) of the sealed table, by node and
// then by part.
func (s *Shortcut) forUp(fn func(v int, i int64)) {
	for v := 0; v+1 < len(s.row); v++ {
		for k := s.row[v]; k < s.row[v+1]; k++ {
			if s.ents[k].Up {
				fn(v, s.parts[k])
			}
		}
	}
}

// Congestion returns (engine-side) the maximum number of parts on any tree
// edge — the shortcut's congestion c per Definition 2.1(1).
func (s *Shortcut) Congestion() int {
	c, run, last := 0, 0, -1
	s.forUp(func(v int, _ int64) {
		if v != last {
			last, run = v, 0
		}
		run++
		c = max(c, run)
	})
	return c
}

// TotalEdges returns Σ_i |H_i| (engine-side).
func (s *Shortcut) TotalEdges() int {
	t := 0
	s.forUp(func(int, int64) { t++ })
	return t
}

// BlockCounts returns (engine-side) the number of blocks of each part that
// has a nonempty shortcut, keyed by part ID: the connected components of
// the forest (V(H_i), H_i), Definition 2.3. Each component is a subtree of
// T, so it is counted once, at its root: the parent end of a claimed edge
// whose own parent edge is not in H_i.
func (s *Shortcut) BlockCounts() map[int64]int {
	out := make(map[int64]int)
	roots := make(map[[2]int64]bool)
	s.forUp(func(v int, i int64) {
		u := s.T.ParentNode[v]
		if r := [2]int64{i, int64(u)}; !s.HasUp(u, i) && !roots[r] {
			roots[r] = true
			out[i]++
		}
	})
	return out
}

// BlockParameter returns (engine-side) the maximum block count over all
// parts — the shortcut's block parameter b per Definition 2.3. Parts with
// empty shortcuts contribute 0.
func (s *Shortcut) BlockParameter() int {
	b := 0
	for _, c := range s.BlockCounts() {
		if c > b {
			b = c
		}
	}
	return b
}

// VerifyAgainstTree checks structural invariants engine-side: every claim
// is mirrored (child's up-claim matches a parent down-port). Block metadata
// lives in table entries, so only nodes on a block can hold it. Test/
// diagnostic helper.
func (s *Shortcut) VerifyAgainstTree(net *congest.Network, in *part.Info) error {
	g := net.Graph()
	var err error
	s.forUp(func(v int, i int64) {
		pp := s.T.ParentPort[v]
		switch {
		case err != nil:
		case pp < 0:
			err = fmt.Errorf("shortcut: root has an up-claim for part %d", i)
		case !slices.Contains(s.DownPorts(g.Neighbor(v, pp), i), g.ReversePort(v, pp)):
			// The edge v-u is unique, so the mirrored down-port must be
			// exactly the CSR-materialized reverse port of pp.
			err = fmt.Errorf("shortcut: claim %d->%d for part %d not mirrored", v, g.Neighbor(v, pp), i)
		}
	})
	_ = in
	return err
}
