package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"shortcutpa/internal/congest"
	"shortcutpa/internal/graph"
	"shortcutpa/internal/part"
	"shortcutpa/internal/shortcut"
)

// The tests below check the router on an Infra's sealed part table: the
// view it builds, its reuse across Infras and table changes, and its
// refusal of a part its table does not hold.

// checkView asserts that inf's router view is current: node v's run is its
// own part merged with the parts of v's sealed table, and the flags match
// the table's entries.
func checkView(t *testing.T, e *Engine, inf *Infra) {
	t.Helper()
	w := inf.routerView(inf.routerCfg(e, modeSolve, nil, congest.SumPair))
	for v := 0; v < e.N; v++ {
		parts, ents := inf.SC.Node(v)
		want := append([]int64(nil), parts...)
		if k, ok := slices.BinarySearch(want, inf.In.LeaderID[v]); !ok {
			want = slices.Insert(want, k, inf.In.LeaderID[v])
		}
		lo, hi := w.row[v], w.row[v+1]
		if got := w.keys[lo:hi]; !reflect.DeepEqual(got, want) {
			t.Fatalf("node %d: view run %v, want %v", v, got, want)
		}
		if got := w.keys[lo+w.own[v]]; got != inf.In.LeaderID[v] {
			t.Fatalf("node %d: own record holds part %d, want %d", v, got, inf.In.LeaderID[v])
		}
		for j, i := range parts {
			st := w.stat[int(lo)+slices.Index(want, i)]
			if !st.onBlock || st.up != ents[j].Up || st.depth != ents[j].Meta.RootDepth {
				t.Fatalf("node %d part %d: view flags %+v, table entry %+v", v, i, st, ents[j])
			}
		}
	}
}

// solveCost runs one aggregation on e and returns its values and cost.
func solveCost(t *testing.T, e *Engine, inf *Infra, vals []congest.Val) ([]congest.Val, congest.Metrics) {
	t.Helper()
	e.Net.ResetMetrics()
	res, err := e.SolveWithInfra(inf, vals, congest.SumPair)
	if err != nil {
		t.Fatal(err)
	}
	return res.Values, e.Net.Total()
}

// TestRouterReuseAcrossInfras: one Engine alternates router runs over two
// Infras, with a construction round on one of them in between (a verify,
// DropPart, another verify, then the part's claims rebuilt and verified).
// Every run gives the values and Metrics a fresh Engine gives for the same
// Infra, and the view follows every table change.
func TestRouterReuseAcrossInfras(t *testing.T) {
	const rows, cols, seed = 6, 36, 21
	g := graph.GridStar(rows, cols)
	e, rowsIn := newTestEngine(t, g, graph.GridStarRowParts(rows, cols), seed, Randomized)
	rng := rand.New(rand.NewSource(22))
	randIn, err := part.FromDense(e.Net, graph.RandomConnectedPartition(g, 5, rng))
	if err != nil {
		t.Fatal(err)
	}
	if err := part.ElectLeaders(e.Net, randIn, int64(16*g.N()+4096)); err != nil {
		t.Fatal(err)
	}
	infA, err := e.BuildInfra(rowsIn)
	if err != nil {
		t.Fatal(err)
	}
	infB, err := e.BuildInfra(randIn)
	if err != nil {
		t.Fatal(err)
	}
	alternate := func(stage string) {
		for k, inf := range []*Infra{infA, infB, infA, infB} {
			vals := randomVals(g.N(), rng)
			got, gotCost := solveCost(t, e, inf, vals)
			fresh, err := NewEngine(congest.NewNetwork(g, seed), Randomized)
			if err != nil {
				t.Fatal(err)
			}
			want, wantCost := solveCost(t, fresh, inf, vals)
			if !reflect.DeepEqual(got, want) || gotCost != wantCost {
				t.Fatalf("%s run %d: reused Engine gave cost %+v, fresh Engine %+v (values equal: %v)",
					stage, k, gotCost, wantCost, reflect.DeepEqual(got, want))
			}
			checkView(t, e, inf)
		}
	}
	alternate("built")

	active := e.uncoveredParts(infA)
	if len(active) == 0 || infA.SC.TotalEdges() == 0 {
		t.Fatal("grid-star row parts should need shortcuts")
	}
	if _, err := e.verifyParts(infA, active); err != nil {
		t.Fatal(err)
	}
	victim := active[0]
	infA.SC.DropPart(victim)
	if _, err := e.verifyParts(infA, active); err != nil {
		t.Fatal(err)
	}
	checkView(t, e, infA)
	for v := 0; v < e.N; v++ {
		if infA.SC.OnBlock(v, victim) {
			t.Fatalf("node %d still holds dropped part %d", v, victim)
		}
	}
	if err := e.coreFast(infA, []int64{victim}); err != nil {
		t.Fatal(err)
	}
	if err := shortcut.SetupBlocks(e.Net, infA.SC, e.maxBudget()); err != nil {
		t.Fatal(err)
	}
	if passed, err := e.verifyParts(infA, []int64{victim}); err != nil || !passed[0] {
		t.Fatalf("reclaimed part %d: passed %v, err %v", victim, passed, err)
	}
	checkView(t, e, infA)
	alternate("after a construction round")
}

// TestRouterRunAfterAbort: a router run cut off by its round budget leaves
// messages queued, and the Engine's next run still starts clean.
func TestRouterRunAfterAbort(t *testing.T) {
	const rows, cols, seed = 6, 36, 25
	g := graph.GridStar(rows, cols)
	e, in := newTestEngine(t, g, graph.GridStarRowParts(rows, cols), seed, Randomized)
	inf, err := e.BuildInfra(in)
	if err != nil {
		t.Fatal(err)
	}
	vals := randomVals(g.N(), rand.New(rand.NewSource(26)))
	// Cut runs off ever later until one leaves a message queued.
	queued := 0
	for budget := int64(1); queued == 0; budget++ {
		run, err := runRouter(inf.routerCfg(e, modeSolve, vals, congest.SumPair), "core/solve", budget)
		if !errors.As(err, new(*congest.BudgetExceededError)) {
			t.Fatalf("%d-round run: error %v, want a budget error", budget, err)
		}
		for v := range run.nodes {
			queued += run.nodes[v].busy
		}
	}
	got, gotCost := solveCost(t, e, inf, vals)
	fresh, err := NewEngine(congest.NewNetwork(g, seed), Randomized)
	if err != nil {
		t.Fatal(err)
	}
	want, wantCost := solveCost(t, fresh, inf, vals)
	if !reflect.DeepEqual(got, want) || gotCost != wantCost {
		t.Fatalf("run after abort cost %+v, fresh Engine %+v (values equal: %v)", gotCost, wantCost, reflect.DeepEqual(got, want))
	}
}

// TestRouterRejectsUnmirroredClaim: an up-claim whose parent never
// recorded the down-port routes a part to a node whose table lacks it. The
// router phase fails naming that node and part, in solve and in verify
// mode, and the node's run stays as the table built it.
func TestRouterRejectsUnmirroredClaim(t *testing.T) {
	const rows, cols = 6, 36
	g := graph.GridStar(rows, cols)
	e, in := newTestEngine(t, g, graph.GridStarRowParts(rows, cols), 23, Randomized)
	inf, err := e.BuildInfra(in)
	if err != nil {
		t.Fatal(err)
	}
	// A node whose tree parent is in another part that H_i never reaches.
	v, u := -1, -1
	for x := 0; x < e.N && v < 0; x++ {
		p, i := e.Tree.ParentNode[x], in.LeaderID[x]
		if p >= 0 && in.LeaderID[p] != i && !inf.SC.HasUp(x, i) && !inf.SC.OnBlock(p, i) {
			v, u = x, p
		}
	}
	if v < 0 {
		t.Fatal("no node with a foreign tree parent off its part's shortcut")
	}
	i := in.LeaderID[v]
	inf.SC.ClaimUp(v, i)
	inf.SC.Seal()
	want := fmt.Sprintf("core: node %d received a message for part %d outside its part table", u, i)
	if res, err := e.SolveWithInfra(inf, randomVals(e.N, rand.New(rand.NewSource(24))), congest.SumPair); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("solve: result %v, error %v; want an error containing %q", res != nil, err, want)
	}
	if _, err := e.verifyParts(inf, nil); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("verify: error %v; want one containing %q", err, want)
	}
	w := inf.view
	if run := w.keys[w.row[u]:w.row[u+1]]; slices.Contains(run, i) {
		t.Fatalf("node %d's run %v gained part %d", u, run, i)
	}
}
