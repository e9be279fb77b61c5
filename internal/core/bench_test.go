package core

import (
	"math/rand"
	"testing"

	"shortcutpa/internal/congest"
	"shortcutpa/internal/graph"
	"shortcutpa/internal/part"
)

// BenchmarkRouterSolve times one Algorithm 1 aggregation (one core/solve
// router run) over prebuilt infrastructure on Figure 2's grid-plus-apex
// instance: 16 row parts of diameter 63, far deeper than D, so the router
// uses the shortcut. Construction and one warm-up solve run outside the
// timer; allocs/op is the router's own steady-state per-run allocation,
// gated by make bench-allocs-check.
func BenchmarkRouterSolve(b *testing.B) {
	e, inf := routerFixture(b)
	vals := randomVals(e.N, rand.New(rand.NewSource(2)))
	// One untimed solve sizes the Engine's reused router records.
	if _, err := e.SolveWithInfra(inf, vals, congest.MinPair); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.SolveWithInfra(inf, vals, congest.MinPair); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRouterVerify times one Algorithm 2 verification (one core/verify
// router run) on BenchmarkRouterSolve's instance, after one untimed
// warm-up run. Verify mode is where every node waits through the complaint
// window: it chains its clock waits through the engine's timer heap, one
// pending timer per node, so allocs/op also gates that heap, through make
// bench-allocs-check.
func BenchmarkRouterVerify(b *testing.B) {
	e, inf := routerFixture(b)
	if _, err := e.verifyParts(inf, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.verifyParts(inf, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildInfra times the construction of routerFixture's randomized
// PA infrastructure: coverage BFS, sub-part division, and the CoreFast
// claim waves, block setups and verify runs of the budget-doubling driver,
// each wave sealed into the part table. The network's PRNG streams run on
// from one build to the next; allocs/op is gated by make
// bench-allocs-check.
func BenchmarkBuildInfra(b *testing.B) {
	e, in := gridStarFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Net.ResetMetrics()
		if _, err := e.BuildInfra(in); err != nil {
			b.Fatal(err)
		}
	}
}

// routerFixture builds the router benchmarks' instance: gridStarFixture's
// engine and partition, and the randomized PA infrastructure over them.
func routerFixture(b *testing.B) (*Engine, *Infra) {
	e, in := gridStarFixture(b)
	inf, err := e.BuildInfra(in)
	if err != nil {
		b.Fatal(err)
	}
	return e, inf
}

// gridStarFixture builds Figure 2's grid-plus-apex graph on a sequential
// network, its engine, and its 16 row parts with elected leaders.
func gridStarFixture(b *testing.B) (*Engine, *part.Info) {
	const rows, cols = 16, 64
	g := graph.GridStar(rows, cols)
	net := congest.NewNetwork(g, 1)
	net.SetWorkers(1)
	e, err := NewEngine(net, Randomized)
	if err != nil {
		b.Fatal(err)
	}
	in, err := part.FromDense(net, graph.GridStarRowParts(rows, cols))
	if err != nil {
		b.Fatal(err)
	}
	if err := part.ElectLeaders(net, in, int64(16*g.N()+4096)); err != nil {
		b.Fatal(err)
	}
	return e, in
}
