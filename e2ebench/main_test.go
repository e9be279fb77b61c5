package main

import (
	"math"
	"slices"
	"strings"
	"testing"

	"shortcutpa/internal/congest"
	"shortcutpa/internal/graph"
)

// small returns the three workloads at sizes a unit test can afford.
func small() []*workload {
	return []*workload{mstRandom(60, 2), paGridStar(3, 8, 4, 2), treeTorus(6, 6, 2)}
}

// corrupt damages one value of a finished run's result.
func corrupt(o outcome) {
	switch o := o.(type) {
	case *mstOutcome:
		for i, in := range o.res.InMST {
			if in {
				o.res.InMST[i] = false
				return
			}
		}
	case *paOutcome:
		o.got[len(o.got)-1][0].A++
	case *treeOutcome:
		o.e.Tree.Depth[len(o.e.Tree.Depth)-1]++
	}
}

func TestOraclesAcceptCorrectResults(t *testing.T) {
	for _, w := range small() {
		r, err := measure(w, 7, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if r.attempts != w.set+len(r.mem) || r.failed != 0 {
			t.Errorf("%s: %d of %d executions failed", w.name, r.failed, r.attempts)
		}
		for _, x := range slices.Concat(r.mem, r.plain) {
			if x.err != nil {
				t.Errorf("%s: %v", w.name, x.err)
			}
		}
	}
}

func TestCorruptedResultCountsAsFailed(t *testing.T) {
	for _, w := range small() {
		run := w.run
		w.run = func(tr *tracer, net *congest.Network, in input, ob *observed) (outcome, error) {
			o, err := run(tr, net, in, ob)
			if err == nil {
				corrupt(o)
			}
			return o, err
		}
		r, err := measure(w, 7, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if r.failed != r.attempts || r.attempts != w.set+len(r.mem) {
			t.Errorf("%s: corrupted results: %d of %d executions counted as failed", w.name, r.failed, r.attempts)
		}
	}
}

func TestLedgerSumsToNetworkTotal(t *testing.T) {
	w := paGridStar(3, 8, 2, 1)
	x, err := execute(w, 7, nil, 0, false)
	if err != nil || x.err != nil {
		t.Fatal(err, x.err)
	}
	var sum congest.Metrics
	for _, layer := range ledgerLayers {
		sum = sum.Add(x.ledger.cost[layer])
	}
	if sum != x.cost || sum.Rounds == 0 {
		t.Errorf("layers sum to %+v, network total %+v", sum, x.cost)
	}
	if x.ledger.claims != x.ob.attempts {
		t.Errorf("%d core/corefast phases, %d construction attempts", x.ledger.claims, x.ob.attempts)
	}
}

func TestUnmappedPhaseFailsLedger(t *testing.T) {
	net := congest.NewNetwork(graph.Path(4), 1)
	idle := congest.NodeProcFunc(func(*congest.Ctx, int) bool { return false })
	if _, err := net.RunNodes("tree/bfs", idle, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := rollup(net); err != nil {
		t.Fatalf("mapped phase: %v", err)
	}
	if _, err := net.RunNodes("tree/renamed", idle, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := rollup(net); err == nil || !strings.Contains(err.Error(), "tree/renamed") {
		t.Fatalf("unmapped phase: got %v", err)
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := newTracer(t.TempDir())
	tr.begin(0)
	tr.do("outer", func() error {
		tr.do("a", func() error { return nil })
		return tr.do("b", func() error { return nil })
	})
	tr.end()
	var child int64
	for _, s := range tr.spans {
		if s.Name == "a" || s.Name == "b" {
			child += s.EndNs - s.StartNs
			if s.Parent != 1 || s.SelfNs != s.EndNs-s.StartNs {
				t.Errorf("span %+v", s)
			}
		}
	}
	outer := tr.spans[1]
	if outer.Name != "outer" || outer.Parent != 0 || outer.SelfNs != outer.EndNs-outer.StartNs-child {
		t.Errorf("outer span %+v, children cover %d ns", outer, child)
	}
}

func TestAttributeChargesInnermostProgramFrame(t *testing.T) {
	listing := `File: e2ebench
Type: cpu
-----------+-------------------------------------------------------
      30ms   runtime.mapaccess1
             shortcutpa/internal/core.(*routerProc).flush
             shortcutpa/internal/congest.(*Network).RunNodes
             shortcutpa/internal/mst.Run
             main.execute
-----------+-------------------------------------------------------
      10ms   runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
     1.05s   runtime.mallocgc
             main.workloads.paGridStar.func1
             main.execute
-----------+-------------------------------------------------------
`
	shares, err := attribute([]byte(listing))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"core": 0.03 / 1.09, "runtime": 0.01 / 1.09, "harness": 1.05 / 1.09}
	var sum float64
	for _, l := range cpuLayers {
		sum += shares[l]
		if math.Abs(shares[l]-want[l]) > 1e-9 {
			t.Errorf("%s share %g, want %g", l, shares[l], want[l])
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %g", sum)
	}
}
