package main

import (
	"fmt"
	"math/rand"
	"slices"

	"shortcutpa/internal/congest"
	"shortcutpa/internal/core"
	"shortcutpa/internal/graph"
	"shortcutpa/internal/mst"
	"shortcutpa/internal/part"
)

// input is one generated instance: the graph plus whatever else the workload
// hands the program (a partition and per-query node values).
type input struct {
	g     *graph.Graph
	parts []int
	vals  [][]congest.Val
}

// observed collects what a run reads from the program's public results.
type observed struct {
	attempts  int64 // core.Infra.Attempts
	budget    int64 // core.Infra.Budget
	mstPhases int64 // mst.Result.Phases
}

// outcome is a finished run's result, checked against an offline oracle
// after the clock stops.
type outcome interface {
	check() error
}

// workload is one benchmark input family and the public calls it makes.
type workload struct {
	name    string
	workers int // engine workers for congest.NewNetworkWorkers
	set     int // instances in the fixed set every run executes at least once
	gen     func(rng *rand.Rand) input
	run     func(tr *tracer, net *congest.Network, in input, ob *observed) (outcome, error)
}

func workloads() map[string]*workload {
	return map[string]*workload{
		"mst-random":  mstRandom(250, 32),
		"pa-gridstar": paGridStar(16, 128, 16, 12),
		"tree-torus":  treeTorus(500, 500, 8),
	}
}

// newEngine is the engine set-up every workload starts with: leader
// election, BFS tree, convergecast and broadcast.
func newEngine(tr *tracer, net *congest.Network) (*core.Engine, error) {
	var e *core.Engine
	err := tr.do("core.new_engine", func() (err error) {
		e, err = core.NewEngine(net, core.Randomized)
		return err
	})
	return e, err
}

// mstRandom is Corollary 1.3's MST on a random connected graph with random
// weights, run sequentially.
func mstRandom(n, set int) *workload {
	return &workload{
		name: "mst-random", workers: 1, set: set,
		gen: func(rng *rand.Rand) input {
			g := graph.RandomConnected(n, 8/float64(n), rng)
			return input{g: graph.RandomizeWeights(g, 1<<20, rng)}
		},
		run: func(tr *tracer, net *congest.Network, in input, ob *observed) (outcome, error) {
			e, err := newEngine(tr, net)
			if err != nil {
				return nil, err
			}
			var res *mst.Result
			if err := tr.do("mst.run", func() (err error) {
				res, err = mst.Run(e, mst.Options{})
				return err
			}); err != nil {
				return nil, err
			}
			ob.mstPhases = int64(res.Phases)
			return &mstOutcome{g: in.g, res: res}, nil
		},
	}
}

type mstOutcome struct {
	g   *graph.Graph
	res *mst.Result
}

func (o *mstOutcome) check() error {
	want := o.g.KruskalMST()
	if len(want) != o.g.N()-1 {
		return fmt.Errorf("mst oracle: Kruskal found %d edges on %d nodes", len(want), o.g.N())
	}
	var got []int
	for i, in := range o.res.InMST {
		if in {
			got = append(got, i)
		}
	}
	if !slices.Equal(got, want) {
		return fmt.Errorf("mst: %d tree edges differ from Kruskal's %d", len(got), len(want))
	}
	var w graph.Weight
	for _, i := range want {
		w += o.g.Edge(i).W
	}
	if o.res.Weight != w {
		return fmt.Errorf("mst: weight %d, Kruskal %d", o.res.Weight, w)
	}
	return nil
}

// paGridStar is Theorem 1.2's PA on Figure 2's grid-plus-apex instance with
// one part per row: one infrastructure build, then queries alternating
// MinPair and SumPair over fresh values.
func paGridStar(rows, cols, queries, set int) *workload {
	return &workload{
		name: "pa-gridstar", workers: 1, set: set,
		gen: func(rng *rand.Rand) input {
			g := graph.GridStar(rows, cols)
			in := input{g: g, parts: graph.GridStarRowParts(rows, cols)}
			for q := 0; q < queries; q++ {
				vals := make([]congest.Val, g.N())
				for v := range vals {
					if q%2 == 0 {
						vals[v] = congest.Val{A: rng.Int63n(1 << 20), B: int64(v)}
					} else {
						vals[v] = congest.Val{A: rng.Int63n(1 << 10), B: 1}
					}
				}
				in.vals = append(in.vals, vals)
			}
			return in
		},
		run: func(tr *tracer, net *congest.Network, in input, ob *observed) (outcome, error) {
			e, err := newEngine(tr, net)
			if err != nil {
				return nil, err
			}
			var info *part.Info
			if err := tr.do("part.from_dense", func() (err error) {
				info, err = part.FromDense(net, in.parts)
				return err
			}); err != nil {
				return nil, err
			}
			if err := tr.do("part.elect_leaders", func() error {
				return part.ElectLeaders(net, info, int64(16*in.g.N()+4096))
			}); err != nil {
				return nil, err
			}
			var inf *core.Infra
			if err := tr.do("core.build_infra", func() (err error) {
				inf, err = e.BuildInfra(info)
				return err
			}); err != nil {
				return nil, err
			}
			ob.attempts, ob.budget = int64(inf.Attempts), inf.Budget
			o := &paOutcome{net: net, info: info, in: in}
			for q, vals := range in.vals {
				var res *core.Result
				if err := tr.do("core.solve_with_infra", func() (err error) {
					res, err = e.SolveWithInfra(inf, vals, paCombine(q))
					return err
				}); err != nil {
					return nil, err
				}
				o.got = append(o.got, res.Values)
			}
			return o, nil
		},
	}
}

func paCombine(q int) congest.Combine {
	if q%2 == 0 {
		return congest.MinPair
	}
	return congest.SumPair
}

type paOutcome struct {
	net  *congest.Network
	info *part.Info
	in   input
	got  [][]congest.Val
}

func (o *paOutcome) check() error {
	nparts := slices.Max(o.in.parts) + 1
	minID := make([]int64, nparts)
	for i := range minID {
		minID[i] = -1
	}
	for v, p := range o.in.parts {
		if id := o.net.ID(v); minID[p] < 0 || id < minID[p] {
			minID[p] = id
		}
	}
	for v, p := range o.in.parts {
		if o.info.LeaderID[v] != minID[p] {
			return fmt.Errorf("pa: node %d has leader %d, part minimum is %d", v, o.info.LeaderID[v], minID[p])
		}
	}
	if len(o.got) != len(o.in.vals) {
		return fmt.Errorf("pa: %d answers for %d queries", len(o.got), len(o.in.vals))
	}
	for q, vals := range o.in.vals {
		f := paCombine(q)
		want := make([]congest.Val, nparts)
		seen := make([]bool, nparts)
		for v, p := range o.in.parts {
			if seen[p] {
				want[p] = f(want[p], vals[v])
			} else {
				want[p], seen[p] = vals[v], true
			}
		}
		for v, p := range o.in.parts {
			if o.got[q][v] != want[p] {
				return fmt.Errorf("pa: query %d node %d got %+v, part fold is %+v", q, v, o.got[q][v], want[p])
			}
		}
	}
	return nil
}

// treeTorus is the engine set-up alone on a large torus: no router, nearly
// all work in the round engine.
func treeTorus(rows, cols, set int) *workload {
	return &workload{
		name: "tree-torus", workers: 2, set: set,
		gen: func(*rand.Rand) input {
			return input{g: graph.Torus(rows, cols)}
		},
		run: func(tr *tracer, net *congest.Network, in input, _ *observed) (outcome, error) {
			e, err := newEngine(tr, net)
			if err != nil {
				return nil, err
			}
			return &treeOutcome{net: net, e: e}, nil
		},
	}
}

type treeOutcome struct {
	net *congest.Network
	e   *core.Engine
}

func (o *treeOutcome) check() error {
	n := o.net.N()
	leader := 0
	for v := 1; v < n; v++ {
		if o.net.ID(v) < o.net.ID(leader) {
			leader = v
		}
	}
	t := o.e.Tree
	if t.Root != leader {
		return fmt.Errorf("tree: root %d, minimum-ID node is %d", t.Root, leader)
	}
	want := o.net.Graph().BFSFrom(leader)
	if !slices.Equal(t.Depth, want) {
		return fmt.Errorf("tree: BFS depths differ from the offline BFS")
	}
	if h := int64(slices.Max(want)); o.e.D != max(h, 1) || o.e.N != n {
		return fmt.Errorf("tree: engine learned n=%d D=%d, want n=%d D=%d", o.e.N, o.e.D, n, max(h, 1))
	}
	return nil
}
