package core

import (
	"reflect"
	"slices"
	"sort"
	"testing"

	"shortcutpa/internal/congest"
	"shortcutpa/internal/graph"
)

// The tests below drive one routerProc by hand at the hub of a star:
// setup fills its queues (or feeds it messages) at round 0, and every hub
// step then runs tryComplete and flush exactly as the router's step does.
// Leaves only log what reaches them, so the log is the router's schedule.

// delivery is one message as a leaf saw it.
type delivery struct {
	round int64
	msg   congest.Message
}

// routerDriver steps p at node 0 and records every leaf's deliveries.
type routerDriver struct {
	p      *routerProc
	setup  func(ctx *congest.Ctx)
	before func(ctx *congest.Ctx) // optional: runs before flush each hub step
	got    [][]delivery
}

func (d *routerDriver) Step(ctx *congest.Ctx, v int) bool {
	if v != 0 {
		ctx.ForRecv(func(_ int, in congest.Incoming) {
			d.got[v] = append(d.got[v], delivery{round: ctx.Round(), msg: in.Msg})
		})
		return false
	}
	if ctx.Round() == 0 {
		d.setup(ctx)
	}
	if d.before != nil {
		d.before(ctx)
	}
	d.p.tryComplete(ctx.Round())
	return d.p.flush(ctx)
}

// starRouter returns a Star(leaves+1) network and a bare hub record whose
// hub port q leads to leaf q+1. The hub's run holds parts keys (ascending),
// none of them its own and none on a block.
func starRouter(t *testing.T, leaves int, det bool, keys ...int64) (*congest.Network, *routerProc) {
	t.Helper()
	g := graph.Star(leaves + 1)
	for q := 0; q < leaves; q++ {
		if g.Neighbor(0, q) != q+1 {
			t.Fatalf("hub port %d leads to %d, want %d", q, g.Neighbor(0, q), q+1)
		}
	}
	cfg := &routerConfig{mode: modeSolve, f: congest.MinPair, det: det}
	return congest.NewNetwork(g, 1), &routerProc{
		cfg: cfg, v: 0, own: -1,
		keys: keys, stat: make([]recStat, len(keys)), recs: make([]partRec, len(keys)),
		queues: make([]portQueue, leaves),
	}
}

// scrambled is the enqueue script shared by the queue tests: (port, part)
// pairs in no port or part order, several parts per port.
var scrambled = []struct {
	port int
	part int64
}{
	{2, 40}, {0, 30}, {3, 10}, {0, 10}, {2, 20}, {1, 30}, {0, 20},
	{3, 40}, {2, 10}, {0, 40}, {1, 20}, {2, 30}, {0, 10},
}

func runScrambled(t *testing.T, det bool) (*routerDriver, congest.Metrics) {
	t.Helper()
	net, p := starRouter(t, 4, det, 10, 20, 30, 40)
	if det {
		// Block-root depths: part 40 shallowest, then 20, then 10 and 30 tie.
		for part, depth := range map[int64]int64{40: 1, 20: 2, 10: 3, 30: 3} {
			p.stat[slices.Index(p.keys, part)].depth = depth
		}
	}
	d := &routerDriver{p: p, got: make([][]delivery, net.N())}
	d.setup = func(*congest.Ctx) {
		for k, e := range scrambled {
			p.enqueue(e.port, slices.Index(p.keys, e.part), congest.Message{Kind: kToken, A: e.part, B: int64(k)})
		}
		var ports []int
		for q := range p.queues {
			if len(p.queues[q].items) > 0 {
				ports = append(ports, q)
			}
		}
		if !reflect.DeepEqual(ports, []int{0, 1, 2, 3}) || p.busy != 4 {
			t.Errorf("queues on ports %v with %d busy, want ports [0 1 2 3] all busy", ports, p.busy)
		}
	}
	cost, err := net.RunNodes("test/router-queues", d, 64)
	if err != nil {
		t.Fatal(err)
	}
	return d, cost
}

// TestRouterFlushOnePerPortFIFO: in randomized mode every port sends one
// message per round, starting the round after enqueue, and drains in
// enqueue order; the queues stay sorted by port however they were created.
func TestRouterFlushOnePerPortFIFO(t *testing.T) {
	d, cost := runScrambled(t, false)
	for q := 0; q < 4; q++ {
		var want []delivery
		for k, e := range scrambled {
			if e.port == q {
				want = append(want, delivery{
					round: int64(len(want) + 1),
					msg:   congest.Message{Kind: kToken, A: e.part, B: int64(k)},
				})
			}
		}
		if got := d.got[q+1]; !reflect.DeepEqual(got, want) {
			t.Errorf("port %d delivered %v, want %v", q, got, want)
		}
	}
	if cost.Messages != int64(len(scrambled)) {
		t.Errorf("Messages = %d, want %d", cost.Messages, len(scrambled))
	}
	if d.p.busy != 0 {
		t.Errorf("busy = %d after draining, want 0", d.p.busy)
	}
}

// TestRouterFlushDeterministicOrder: in deterministic mode each port
// drains by (block-root depth, part ID, arrival), one message per round.
func TestRouterFlushDeterministicOrder(t *testing.T) {
	d, _ := runScrambled(t, true)
	depth := map[int64]int64{40: 1, 20: 2, 10: 3, 30: 3}
	for q := 0; q < 4; q++ {
		var want []congest.Message
		for k, e := range scrambled {
			if e.port == q {
				want = append(want, congest.Message{Kind: kToken, A: e.part, B: int64(k)})
			}
		}
		sort.SliceStable(want, func(a, b int) bool {
			if depth[want[a].A] != depth[want[b].A] {
				return depth[want[a].A] < depth[want[b].A]
			}
			return want[a].A < want[b].A
		})
		got := d.got[q+1]
		if len(got) != len(want) {
			t.Fatalf("port %d delivered %d messages, want %d", q, len(got), len(want))
		}
		for k := range got {
			if got[k].round != int64(k+1) || got[k].msg != want[k] {
				t.Errorf("port %d delivery %d = %+v, want %+v in round %d", q, k, got[k], want[k], k+1)
			}
		}
	}
}

// TestRouterFlushBusyAndDeadPorts: a port that cannot send this round
// keeps its whole queue for the next one. A dead port (edge dropped by the
// scenario) is not such a port: CanSend stays true there, so flush drains
// it at the same one-per-round pace, each send counted and dropped.
func TestRouterFlushBusyAndDeadPorts(t *testing.T) {
	net, p := starRouter(t, 3, false, 0, 1, 2)
	sc, err := congest.ParseScenario("drop=0-2@0")
	if err != nil {
		t.Fatal(err)
	}
	if err := net.SetScenario(sc); err != nil {
		t.Fatal(err)
	}
	d := &routerDriver{p: p, got: make([][]delivery, net.N())}
	d.setup = func(*congest.Ctx) {
		for k := int64(0); k < 3; k++ {
			for q := 0; q < 3; q++ {
				p.enqueue(q, int(k), congest.Message{Kind: kToken, A: k})
			}
		}
	}
	// Round 1: occupy port 0 before flush runs.
	d.before = func(ctx *congest.Ctx) {
		if ctx.Round() == 1 {
			ctx.Send(0, congest.Message{Kind: kComplain, A: -1})
		}
	}
	cost, err := net.RunNodes("test/router-ports", d, 64)
	if err != nil {
		t.Fatal(err)
	}
	tok := func(round, part int64) delivery {
		return delivery{round: round, msg: congest.Message{Kind: kToken, A: part}}
	}
	wantBusy := []delivery{
		tok(1, 0),
		{round: 2, msg: congest.Message{Kind: kComplain, A: -1}},
		tok(3, 1), tok(4, 2),
	}
	if got := d.got[1]; !reflect.DeepEqual(got, wantBusy) {
		t.Errorf("busy port delivered %v, want %v", got, wantBusy)
	}
	if got := d.got[2]; len(got) != 0 {
		t.Errorf("dead port delivered %v", got)
	}
	if want := []delivery{tok(1, 0), tok(2, 1), tok(3, 2)}; !reflect.DeepEqual(d.got[3], want) {
		t.Errorf("live port delivered %v, want %v", d.got[3], want)
	}
	// 9 tokens plus the occupying message, the dead port's 3 included.
	if cost.Messages != 10 {
		t.Errorf("Messages = %d, want 10", cost.Messages)
	}
}

// TestRouterSealOrder: parts that become complete in the same step seal in
// ascending part ID, whatever order their tokens arrived in, and the
// origin's RESULT takes its place in that order.
func TestRouterSealOrder(t *testing.T) {
	net, p := starRouter(t, 1, false, 10, 15, 20, 30)
	p.own = slices.Index(p.keys, 15)
	p.ownVal = congest.Val{A: 7, B: 8}
	d := &routerDriver{p: p, got: make([][]delivery, net.N())}
	d.setup = func(*congest.Ctx) {
		// The hub leads part 15; its token reached leaf 1, which adopted.
		p.adopt(p.own, -1)
		p.recs[p.own].children = append(p.recs[p.own].children, 0)
		// Tokens of three foreign parts arrive on port 0 in scrambled order.
		for _, i := range []int64{30, 10, 20} {
			p.handle(congest.Incoming{Port: 0, Msg: congest.Message{Kind: kToken, A: i}})
		}
		var informed []int64
		for k := range p.recs {
			if p.recs[k].informed {
				informed = append(informed, p.keys[k])
			}
		}
		if !reflect.DeepEqual(informed, []int64{10, 15, 20, 30}) || p.open != 4 || p.err != nil {
			t.Errorf("records %v informed with %d open (err %v), want [10 15 20 30] all open", informed, p.open, p.err)
		}
	}
	if _, err := net.RunNodes("test/router-seal", d, 64); err != nil {
		t.Fatal(err)
	}
	var got []congest.Message
	for _, dl := range d.got[1] {
		got = append(got, dl.msg)
	}
	want := []congest.Message{
		{Kind: kAckAdopt, A: 30}, {Kind: kAckAdopt, A: 10}, {Kind: kAckAdopt, A: 20},
		{Kind: kAggEmpty, A: 10}, {Kind: kResult, A: 15, B: 7, C: 8},
		{Kind: kAggEmpty, A: 20}, {Kind: kAggEmpty, A: 30},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("leaf received %v, want %v", got, want)
	}
	if p.open != 0 || !p.gotResult || p.result != p.ownVal {
		t.Errorf("open=%d gotResult=%v result=%+v, want 0, true, %+v", p.open, p.gotResult, p.result, p.ownVal)
	}
}
