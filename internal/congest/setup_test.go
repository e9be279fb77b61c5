package congest

import (
	"math/rand"
	"testing"

	"shortcutpa/internal/graph"
)

// Construction-path tests: the sharded slot-geometry fill must be
// slot-for-slot identical to the sequential reference, and the sorted
// NodeByID index must agree with a straightforward map of the network's
// IDs (including misses).

// geometryGraphs are the topologies the fill tests run on. The torus
// crosses the minParallelFillNodes gate so the parallel fill really runs;
// the star is the degree-skew worst case (one receiver owns half of all
// slots, so one shard's counters see almost all of one column); the random
// graph has irregular rows.
func geometryGraphs(tb testing.TB) map[string]*graph.Graph {
	tb.Helper()
	return map[string]*graph.Graph{
		"torus-150x150": graph.Torus(150, 150),
		"star-20k":      graph.Star(20000),
		"random-17k":    graph.RandomConnected(17000, 3.0/17000.0, rand.New(rand.NewSource(7))),
	}
}

func TestParallelGeometryFillMatchesSequential(t *testing.T) {
	for name, g := range geometryGraphs(t) {
		t.Run(name, func(t *testing.T) {
			if g.N() < minParallelFillNodes {
				t.Fatalf("fixture below the parallel-fill gate: n=%d", g.N())
			}
			seq := NewNetworkWorkers(g, 42, 1)
			for _, workers := range []int{2, 3, 8} {
				par := NewNetworkWorkers(g, 42, workers)
				for s := range seq.destSlot {
					if seq.destSlot[s] != par.destSlot[s] {
						t.Fatalf("workers=%d: destSlot[%d] = %d, want %d", workers, s, par.destSlot[s], seq.destSlot[s])
					}
					if seq.slotPort[s] != par.slotPort[s] {
						t.Fatalf("workers=%d: slotPort[%d] = %d, want %d", workers, s, par.slotPort[s], seq.slotPort[s])
					}
				}
			}
		})
	}
}

// TestParallelGeometryFillBelowGate pins the gate itself: a small network
// built with many workers must still use the (sequential) fill and still be
// correct — the gate is a perf heuristic, not a semantic switch.
func TestParallelGeometryFillBelowGate(t *testing.T) {
	g := graph.Torus(10, 10)
	seq := NewNetworkWorkers(g, 42, 1)
	par := NewNetworkWorkers(g, 42, 8)
	for s := range seq.destSlot {
		if seq.destSlot[s] != par.destSlot[s] {
			t.Fatalf("destSlot[%d] differs below the gate", s)
		}
	}
}

// TestNodeByIDSortedIndexAgreesWithMap rebuilds the pre-PR-5 map from the
// public ID accessor on several (topology, seed) pairs and checks the
// sorted-index lookup agrees on every hit, plus misses around each ID and
// at the extremes.
func TestNodeByIDSortedIndexAgreesWithMap(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"path-97":  graph.Path(97),
		"star-300": graph.Star(300),
		"random":   graph.RandomConnected(257, 0.02, rand.New(rand.NewSource(3))),
	}
	for name, g := range graphs {
		for _, seed := range []int64{1, 42, 31337} {
			net := NewNetwork(g, seed)
			byID := make(map[int64]int, g.N())
			for v := 0; v < g.N(); v++ {
				byID[net.ID(v)] = v
			}
			if len(byID) != g.N() {
				t.Fatalf("%s/seed=%d: IDs not unique: %d for %d nodes", name, seed, len(byID), g.N())
			}
			for v := 0; v < g.N(); v++ {
				id := net.ID(v)
				if got := net.NodeByID(id); got != v {
					t.Fatalf("%s/seed=%d: NodeByID(ID(%d)) = %d", name, seed, v, got)
				}
				// Neighborhood misses: the affine ID map leaves gaps on both
				// sides of every ID, so id±1 must miss.
				for _, miss := range []int64{id - 1, id + 1} {
					if _, hit := byID[miss]; hit {
						continue
					}
					if got := net.NodeByID(miss); got != -1 {
						t.Fatalf("%s/seed=%d: NodeByID(%d) = %d, want -1", name, seed, miss, got)
					}
				}
			}
			for _, miss := range []int64{-1 << 62, -1, 0, 1 << 62} {
				if _, hit := byID[miss]; hit {
					continue
				}
				if got := net.NodeByID(miss); got != -1 {
					t.Fatalf("%s/seed=%d: NodeByID(%d) = %d, want -1", name, seed, miss, got)
				}
			}
		}
	}
}

// TestNodeByIDRandomProbes fires uniform random probes at a network: any
// probe that happens to be a real ID must resolve, everything else must
// miss. Exercises the binary search away from exact-hit patterns.
func TestNodeByIDRandomProbes(t *testing.T) {
	g := graph.Grid(20, 20)
	net := NewNetwork(g, 99)
	byID := make(map[int64]int, g.N())
	for v := 0; v < g.N(); v++ {
		byID[net.ID(v)] = v
	}
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 5000; i++ {
		probe := rng.Int63n(int64(g.N())*2654435761 + 123456)
		want, hit := byID[probe]
		got := net.NodeByID(probe)
		if hit && got != want {
			t.Fatalf("NodeByID(%d) = %d, want %d", probe, got, want)
		}
		if !hit && got != -1 {
			t.Fatalf("NodeByID(%d) = %d, want -1", probe, got)
		}
	}
}

// TestNodeByIDEmptyNetwork: the n=0 degenerate must miss cleanly.
func TestNodeByIDEmptyNetwork(t *testing.T) {
	g, err := graph.New(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := NewNetwork(g, 1).NodeByID(12345); got != -1 {
		t.Fatalf("NodeByID on empty network = %d, want -1", got)
	}
}
