package congest

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"shortcutpa/internal/graph"
)

// forrecv_test.go is the contract of the engine's one receive primitive.
// Senders log every message they put on a live port as a transcript entry
// (delivery round, receiver, arrival port, sender, message); ForRecv must
// yield exactly the receiver's entries, round by round, in ascending
// sender-index order, with the sender's rank among the receiver's
// neighbors — at full, sparse and zero slot occupancy, on the degenerate
// topologies, across a dead port, and on both engines.

// recvEntry is one delivery as the transcript records it.
type recvEntry struct {
	round int64 // phase round the message is delivered in
	from  int   // sender
	rank  int   // sender's rank among the receiver's neighbors
	in    Incoming
}

// recvCase is one traffic pattern: send reports whether node v sends on
// port p in round r (rounds < rounds only).
type recvCase struct {
	name   string
	g      func() *graph.Graph
	spec   string // fault scenario; "" = fault-free
	rounds int64
	send   func(v int, r int64, p int) bool
}

func always(int, int64, int) bool { return true }

func recvCases() []recvCase {
	return []recvCase{
		{name: "full", g: func() *graph.Graph { return graph.Torus(4, 4) }, rounds: 3, send: always},
		{name: "sparse", g: func() *graph.Graph {
			return graph.RandomConnected(60, 0.08, rand.New(rand.NewSource(7)))
		}, rounds: 12, send: func(v int, r int64, p int) bool {
			return (v*7+int(r)*13+p*5)%3 == 0
		}},
		{name: "zero", g: func() *graph.Graph { return graph.Cycle(5) }, rounds: 3,
			send: func(int, int64, int) bool { return false }},
		// Edge 0-1 of the path 0-1-2 is dead from round 0: sends on it are
		// counted and dropped, nothing crosses it, and the 1-2 edge keeps
		// delivering.
		{name: "dead-port", g: func() *graph.Graph { return graph.Path(3) },
			spec: "drop=0-1@0", rounds: 3, send: always},
	}
}

// degenerateRecvCases are the shapes where CSR ranges collapse: the empty
// graph, a single node, a single edge, and a graph with isolated nodes.
func degenerateRecvCases() []recvCase {
	return []recvCase{
		{name: "n=0", g: func() *graph.Graph { return graph.MustNew(0, nil) }, rounds: 2, send: always},
		{name: "n=1", g: func() *graph.Graph { return graph.MustNew(1, nil) }, rounds: 2, send: always},
		{name: "n=2", g: func() *graph.Graph { return graph.Path(2) }, rounds: 2, send: always},
		// Nodes 0-1 share the only edge; 2 and 3 are isolated.
		{name: "isolated-nodes", g: func() *graph.Graph {
			return graph.MustNew(4, []graph.Edge{{U: 0, V: 1, W: 1}})
		}, rounds: 2, send: always},
	}
}

// recvRun is everything one run of a recvCase observed.
type recvRun struct {
	got   [][]recvEntry // per receiver, in ForRecv order
	want  [][]recvEntry // per receiver, from the senders' logs in contract order
	first []Incoming    // per receiver, the first Incoming ForRecv yielded, kept by value
	cost  Metrics
	sends int64 // Send calls, dead ports included
}

// runRecvCase runs c at the given worker count.
func runRecvCase(t *testing.T, c recvCase, workers int) recvRun {
	t.Helper()
	g := c.g()
	n := g.N()
	csr := g.CSR()
	net := NewNetworkWorkers(g, 3, workers)
	if c.spec != "" {
		sc, err := ParseScenario(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := net.SetScenario(sc); err != nil {
			t.Fatal(err)
		}
	}
	res := recvRun{
		got:   make([][]recvEntry, n),
		want:  make([][]recvEntry, n),
		first: make([]Incoming, n),
	}
	// Senders append to want[receiver], so on the parallel engine the logs
	// need a lock; received entries are per-node, single writer.
	var mu sync.Mutex
	nsent := make([]int64, n)
	proc := NodeProcFunc(func(ctx *Ctx, v int) bool {
		r := ctx.Round()
		ctx.ForRecv(func(rank int, in Incoming) {
			if len(res.got[v]) == 0 {
				res.first[v] = in
			}
			res.got[v] = append(res.got[v], recvEntry{round: r, from: int(in.Msg.A), rank: rank, in: in})
		})
		if r >= c.rounds {
			return false
		}
		for p := 0; p < ctx.Degree(); p++ {
			if !c.send(v, r, p) {
				continue
			}
			h := csr.RowStart[v] + int32(p)
			m := Message{Kind: 1, A: int64(v), B: r, C: int64(p)}
			if ctx.PortDown(p) {
				// A dead port accepts sends — repeated ones too, since no
				// slot is written — and swallows them.
				if !ctx.CanSend(p) {
					t.Errorf("workers=%d node %d round %d: CanSend(%d) = false on a dead port", workers, v, r, p)
				}
				ctx.Send(p, m)
				ctx.Send(p, m)
				nsent[v] += 2
				continue
			}
			ctx.Send(p, m)
			nsent[v]++
			to := int(csr.PortTo[h])
			mu.Lock()
			res.want[to] = append(res.want[to], recvEntry{
				round: r + 1,
				from:  v,
				rank:  neighborRank(csr, to, v),
				in:    Incoming{Port: int(csr.PortRev[h]), Msg: m},
			})
			mu.Unlock()
		}
		return true
	})
	var err error
	if res.cost, err = net.RunNodes("forrecv/"+c.name, proc, c.rounds+4); err != nil {
		t.Fatal(err)
	}
	// The logs are in sender step order; the contract order is (round,
	// ascending sender).
	for v := range res.want {
		slices.SortFunc(res.want[v], func(a, b recvEntry) int {
			if a.round != b.round {
				return int(a.round - b.round)
			}
			return a.from - b.from
		})
	}
	for _, k := range nsent {
		res.sends += k
	}
	return res
}

// neighborRank is u's position among v's neighbors in ascending node order:
// the slot offset ForRecv reports as rank.
func neighborRank(csr graph.CSR, v, u int) int {
	rank := 0
	for h := csr.RowStart[v]; h < csr.RowStart[v+1]; h++ {
		if int(csr.PortTo[h]) < u {
			rank++
		}
	}
	return rank
}

// checkRecvCase runs c on both engines and holds ForRecv to the transcript.
func checkRecvCase(t *testing.T, c recvCase) {
	t.Helper()
	for _, workers := range []int{1, 4} {
		res := runRecvCase(t, c, workers)
		for v, want := range res.want {
			if !slices.Equal(res.got[v], want) {
				t.Fatalf("workers=%d node %d: ForRecv yielded\n%+v\nsenders logged\n%+v", workers, v, res.got[v], want)
			}
			// An Incoming kept from an early round still reads what
			// was delivered then: ForRecv yields copies, never views
			// of the slot buffers later rounds overwrite.
			if len(want) > 0 && res.first[v] != want[0].in {
				t.Fatalf("workers=%d node %d: kept Incoming reads %+v, delivered %+v", workers, v, res.first[v], want[0].in)
			}
		}
		if res.cost.Messages != res.sends {
			t.Fatalf("workers=%d: Messages = %d, senders called Send %d times", workers, res.cost.Messages, res.sends)
		}
	}
}

func TestForRecvContract(t *testing.T) {
	for _, c := range recvCases() {
		t.Run(c.name, func(t *testing.T) { checkRecvCase(t, c) })
	}
}

// TestRecvOnDegenerateTopologies holds the receive path to the same
// contract on the degenerate topologies, where the slot lookup has empty
// or single-entry CSR ranges.
func TestRecvOnDegenerateTopologies(t *testing.T) {
	for _, c := range degenerateRecvCases() {
		t.Run(c.name, func(t *testing.T) { checkRecvCase(t, c) })
	}
}

// TestRecvOnValueSurvivesRounds: ForRecv hands out Incoming values, not
// views, so one kept from round 1 still reads what was delivered then after
// round 2 has delivered a different message on the same port.
func TestRecvOnValueSurvivesRounds(t *testing.T) {
	net := NewNetwork(graph.Path(2), 1)
	var kept Incoming
	checked := false
	proc := NodeProcFunc(func(ctx *Ctx, v int) bool {
		r := ctx.Round()
		if v == 0 {
			if r < 2 {
				ctx.Send(0, Message{A: 42 + r})
			}
			return r < 2
		}
		switch r {
		case 1:
			ctx.ForRecv(func(_ int, in Incoming) { kept = in })
		case 2:
			checked = true
			var now Incoming
			ctx.ForRecv(func(_ int, in Incoming) { now = in })
			if now.Msg.A != 43 {
				t.Errorf("round 2 ForRecv = %+v, want A=43", now)
			}
			if kept.Msg.A != 42 {
				t.Errorf("Incoming kept from round 1 changed: %+v, want A=42", kept)
			}
		}
		return r < 2
	})
	if _, err := net.RunNodes("recv-retain", proc, 10); err != nil {
		t.Fatal(err)
	}
	if !checked {
		t.Fatal("retention check never ran")
	}
}

// TestRecvCopySurvivesRounds: Incoming values collected into a slice of
// the caller's own stay stable across later rounds.
func TestRecvCopySurvivesRounds(t *testing.T) {
	net := NewNetwork(graph.Path(2), 1)
	var copied []Incoming
	checked := false
	proc := NodeProcFunc(func(ctx *Ctx, v int) bool {
		r := ctx.Round()
		if v == 0 {
			if r < 2 {
				ctx.Send(0, Message{A: 7 + r})
			}
			return r < 2
		}
		switch r {
		case 1:
			ctx.ForRecv(func(_ int, in Incoming) { copied = append(copied, in) })
		case 2:
			checked = true
			if len(copied) != 1 || copied[0].Msg.A != 7 {
				t.Errorf("copied messages changed across rounds: %+v", copied)
			}
		}
		return r < 2
	})
	if _, err := net.RunNodes("copy", proc, 10); err != nil {
		t.Fatal(err)
	}
	if !checked {
		t.Fatal("copy check never ran")
	}
}

// TestPortRangePanics pins the port check shared by Send, CanSend and
// PortDown: any port outside [0, degree) panics, including values that
// would wrap back into range if truncated to int32.
func TestPortRangePanics(t *testing.T) {
	methods := []struct {
		name string
		call func(ctx *Ctx, p int)
	}{
		{"Send", func(ctx *Ctx, p int) { ctx.Send(p, Message{A: 1}) }},
		{"CanSend", func(ctx *Ctx, p int) { ctx.CanSend(p) }},
		{"PortDown", func(ctx *Ctx, p int) { ctx.PortDown(p) }},
	}
	net := NewNetworkWorkers(graph.Path(3), 1, 1) // checked is shared: sequential engine
	checked := 0
	proc := NodeProcFunc(func(ctx *Ctx, v int) bool {
		deg := ctx.Degree()
		for _, m := range methods {
			for _, p := range []int{-1, deg, 1 << 32, 1<<32 + deg - 1} {
				func() {
					defer func() {
						r := recover()
						if !strings.Contains(fmt.Sprint(r), "has no port") {
							t.Errorf("node %d (degree %d): %s(%d) recovered %v, want the no-port panic", v, deg, m.name, p, r)
						}
					}()
					m.call(ctx, p)
				}()
				checked++
			}
		}
		return false
	})
	cost, err := net.RunNodes("badport", proc, 4)
	if err != nil {
		t.Fatal(err)
	}
	if checked != 3*3*4 {
		t.Fatalf("%d port checks ran, want 36", checked)
	}
	if cost.Messages != 0 {
		t.Fatalf("an out-of-range Send was delivered: Messages = %d", cost.Messages)
	}
}
