package congest

import (
	"errors"
	"fmt"
	"testing"

	"shortcutpa/internal/graph"
)

// sparse_test.go covers sparse-activity round execution: the frontier-list
// drain and sender-side dirty tracking that make a round cost O(awake +
// delivered) instead of O(n + slots). Every test here compares a default
// (sparse-enabled) run against the same protocol with SetSparseRounds(false)
// — the dense full-range path that reproduces the pre-sparse engine — and
// requires the complete observable outcome to be bit-identical. The teeth
// are ActivityStats: a comparison only counts if the sparse leg actually
// drained frontier rounds (sparseRounds > 0) while the dense leg took none.

// tokenWalk runs a single token down a path graph: node 0 launches it in
// round 0 (the always-dense first round) and each node forwards it to its
// higher neighbor the round it arrives. After round 0 exactly one node is
// scheduled per round — the sparsest protocol the engine can execute, and
// the shape the frontier queues exist for.
func tokenWalk(t *testing.T, n, workers int, sparse bool, spec string) (string, *Network) {
	t.Helper()
	g := graph.Path(n)
	net := NewNetworkWorkers(g, 7, workers)
	net.SetSparseRounds(sparse)
	if spec != "" {
		sc, err := ParseScenario(spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := net.SetScenario(sc); err != nil {
			t.Fatal(err)
		}
	}
	steps := make([]int64, n)
	hops := make([]int64, n)
	proc := NodeProcFunc(func(ctx *Ctx, v int) bool {
		steps[v]++
		got := int64(-1)
		ctx.ForRecv(func(_ int, in Incoming) { got = in.Msg.A })
		if (ctx.Round() == 0 && v == 0) || got >= 0 {
			hops[v] = ctx.Round() + 1
			if v < n-1 {
				ctx.Send(ctx.Degree()-1, Message{A: int64(v + 1)})
			}
		}
		return false
	})
	cost, err := net.RunNodes("walk", proc, int64(n)+8)
	crashed, dead := net.FaultCounts()
	out := fmt.Sprintf("err=%v cost=%+v faults=%d/%d steps=%v hops=%v",
		err, cost, crashed, dead, steps, hops)
	return out, net
}

// TestSparseMatchesDenseTokenWalk pins bit-identity on the sparse extreme:
// dense-forced and sparse runs across both engines must produce the same
// per-node step counts, arrival rounds, and Metrics, while only the sparse
// legs take the frontier path.
func TestSparseMatchesDenseTokenWalk(t *testing.T) {
	const n = 400
	want, wantNet := tokenWalk(t, n, 1, false, "")
	wantStepped, wantSparse := wantNet.ActivityStats()
	if wantSparse != 0 {
		t.Fatalf("dense-forced run drained %d sparse rounds, want 0", wantSparse)
	}
	for _, workers := range []int{1, 4} {
		for _, sparse := range []bool{false, true} {
			got, net := tokenWalk(t, n, workers, sparse, "")
			if got != want {
				t.Fatalf("workers=%d sparse=%v diverged:\n got %s\nwant %s", workers, sparse, got, want)
			}
			stepped, sparseRounds := net.ActivityStats()
			if stepped != wantStepped {
				t.Fatalf("workers=%d sparse=%v stepped %d, want %d", workers, sparse, stepped, wantStepped)
			}
			if !sparse && sparseRounds != 0 {
				t.Fatalf("workers=%d dense-forced run drained %d sparse rounds", workers, sparseRounds)
			}
			if sparse && sparseRounds < int64(n)/2 {
				t.Fatalf("workers=%d sparse run drained only %d/%d rounds from the frontier",
					workers, sparseRounds, n)
			}
		}
	}
	// The walk steps every node once in round 0, then one node per hop plus
	// the quiescence tail — activity linear in n, not n per round.
	if wantStepped > int64(3*n) {
		t.Fatalf("token walk stepped %d nodes total, want O(n)=%d", wantStepped, 3*n)
	}
}

// pulseRun is the mode-transition workload: beacon nodes (every 17th) stay
// persistently active and broadcast every 8th round, waking a cascade that
// echoes for a few rounds and decays. The frontier repeatedly grows past
// the dense-overflow cap and shrinks back under it, so runs cross the
// sparse<->dense boundary both ways — the adaptive switch is the thing
// under test, not either pure mode.
func pulseRun(t *testing.T, workers int, sparse bool, spec string, abortFirst bool) (string, *Network) {
	t.Helper()
	g := graph.Torus(12, 12)
	net := NewNetworkWorkers(g, 9, workers)
	net.SetSparseRounds(sparse)
	if spec != "" {
		sc, err := ParseScenario(spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := net.SetScenario(sc); err != nil {
			t.Fatal(err)
		}
	}
	const rounds = 40
	run := func(name string, budget int64) (string, error) {
		digest := make([]int64, g.N())
		proc := NodeProcFunc(func(ctx *Ctx, v int) bool {
			got := 0
			ctx.ForRecv(func(_ int, in Incoming) {
				got++
				digest[v] = digest[v]*1000003 + in.Msg.A%1009 + ctx.Round()
			})
			r := ctx.Round()
			if r >= rounds {
				return false
			}
			if v%17 == 0 {
				if r%8 == 7 {
					ctx.Broadcast(Message{A: digest[v] + int64(v)})
				}
				return true
			}
			// Ordinary nodes echo only in the first half of each pulse
			// period, so every cascade decays instead of ping-ponging.
			if got > 0 && r%8 < 4 {
				ctx.Broadcast(Message{A: digest[v]})
			}
			return false
		})
		cost, err := net.RunNodes(name, proc, budget)
		crashed, dead := net.FaultCounts()
		return fmt.Sprintf("err=%v cost=%+v faults=%d/%d digest=%v", err, cost, crashed, dead, digest), err
	}
	if abortFirst {
		// Blow the round budget mid-cascade: the abort leaves the frontier
		// lists, dirty counts, and fault cursor mid-flight, and Reset must
		// rewind all of it.
		_, err := run("pulse/abort", 5)
		var be *BudgetExceededError
		if !errors.As(err, &be) {
			t.Fatalf("abort leg: got %v, want BudgetExceededError", err)
		}
		net.Reset()
	}
	out, err := run("pulse", rounds+8)
	if err != nil {
		t.Fatalf("pulse run: %v", err)
	}
	return out, net
}

// TestSparseMatchesDensePulseCascade pins bit-identity across the
// sparse<->dense adaptive transitions, on both engines.
func TestSparseMatchesDensePulseCascade(t *testing.T) {
	want, _ := pulseRun(t, 1, false, "", false)
	for _, workers := range []int{1, 4} {
		got, net := pulseRun(t, workers, true, "", false)
		if got != want {
			t.Fatalf("workers=%d sparse pulse diverged:\n got %s\nwant %s", workers, got, want)
		}
		if _, sparseRounds := net.ActivityStats(); sparseRounds == 0 {
			t.Fatalf("workers=%d pulse run never took the sparse path", workers)
		}
		if dense, _ := pulseRun(t, workers, false, "", false); dense != want {
			t.Fatalf("workers=%d dense pulse diverged:\n got %s\nwant %s", workers, dense, want)
		}
	}
}

// TestSparseCrashEvictsFrontier pins the fault interaction: a node crashed
// at round r is evicted from the frontier that same round — it neither
// steps nor forwards, whether it was woken (token walk) or persistently
// active (pulse beacon) when the crash landed.
func TestSparseCrashEvictsFrontier(t *testing.T) {
	const n = 400
	// crash=150@150: the token wakes node 150 via the round-149 send, and
	// the crash applies at the round-150 boundary — the node is already in
	// the woken list when it dies. The walk must stop there.
	for _, spec := range []string{"crash=150@150", "crash=150@100"} {
		want, wantNet := tokenWalk(t, n, 1, false, spec)
		if cost := wantNet.Total(); cost.Rounds >= int64(n) {
			t.Fatalf("spec %q: walk ran %d rounds, crash did not stop it", spec, cost.Rounds)
		}
		for _, workers := range []int{1, 4} {
			got, net := tokenWalk(t, n, workers, true, spec)
			if got != want {
				t.Fatalf("spec %q workers=%d diverged:\n got %s\nwant %s", spec, workers, got, want)
			}
			if _, sparseRounds := net.ActivityStats(); sparseRounds < int64(n)/4 {
				t.Fatalf("spec %q workers=%d: only %d sparse rounds", spec, workers, sparseRounds)
			}
		}
	}
	// Beacon 34 is in the persistent-active list when it crashes mid-run;
	// edge 3-4 dies while cascades are crossing it.
	const spec = "crash=34@12;drop=3-4@6"
	want, _ := pulseRun(t, 1, false, spec, false)
	for _, workers := range []int{1, 4} {
		if got, _ := pulseRun(t, workers, true, spec, false); got != want {
			t.Fatalf("faulty pulse workers=%d diverged:\n got %s\nwant %s", workers, got, want)
		}
	}
}

// TestSparseResetRewindsFrontierState aborts a faulty pulse run mid-cascade
// — frontier lists populated, dirty counts nonzero, fault cursor advanced —
// then Resets and reruns. The rerun must be bit-identical to a fresh
// network's run on both engines.
func TestSparseResetRewindsFrontierState(t *testing.T) {
	const spec = "crash=40@9;drop=3-4@6"
	for _, workers := range []int{1, 4} {
		fresh, _ := pulseRun(t, workers, true, spec, false)
		reused, _ := pulseRun(t, workers, true, spec, true)
		if reused != fresh {
			t.Fatalf("workers=%d: post-Reset run diverged from fresh:\n got %s\nwant %s",
				workers, reused, fresh)
		}
	}
}

// TestSparseDegenerateSizes runs tiny graphs (including an edgeless
// single node) through both modes and engines: the frontier caps floor at
// m/8+16 but are clamped to m, so these exercise cap == 0.
func TestSparseDegenerateSizes(t *testing.T) {
	builds := []func() *graph.Graph{
		func() *graph.Graph { return graph.Path(1) },
		func() *graph.Graph { return graph.Path(2) },
		func() *graph.Graph { return graph.Cycle(3) },
	}
	for bi, build := range builds {
		run := func(workers int, sparse bool) string {
			g := build()
			net := NewNetworkWorkers(g, 5, workers)
			net.SetSparseRounds(sparse)
			heard := make([]int64, g.N())
			proc := NodeProcFunc(func(ctx *Ctx, v int) bool {
				ctx.ForRecv(func(_ int, in Incoming) { heard[v] += in.Msg.A })
				if ctx.Round() < 2 {
					ctx.Broadcast(Message{A: int64(v + 1)})
					return true
				}
				return false
			})
			cost, err := net.RunNodes("tiny", proc, 8)
			return fmt.Sprintf("err=%v cost=%+v heard=%v", err, cost, heard)
		}
		want := run(1, false)
		for _, workers := range []int{1, 2} {
			for _, sparse := range []bool{false, true} {
				if got := run(workers, sparse); got != want {
					t.Fatalf("graph %d workers=%d sparse=%v: got %s, want %s",
						bi, workers, sparse, got, want)
				}
			}
		}
	}
}

// TestSparseRenormInterplay forces stamp renormalization every 48 rounds
// under a 300-round sparse walk: the woken-list dedup rides the wakeNext
// stamps, which renormStamps rebases, and the frontier lists themselves
// hold plain node indices — a renorm boundary mid-drain must be invisible.
func TestSparseRenormInterplay(t *testing.T) {
	old := stampRenormThreshold
	stampRenormThreshold = 48
	defer func() { stampRenormThreshold = old }()
	const n = 300
	want, wantNet := tokenWalk(t, n, 1, false, "")
	wantStepped, _ := wantNet.ActivityStats()
	for _, workers := range []int{1, 4} {
		got, net := tokenWalk(t, n, workers, true, "")
		if got != want {
			t.Fatalf("workers=%d renorm walk diverged:\n got %s\nwant %s", workers, got, want)
		}
		stepped, sparseRounds := net.ActivityStats()
		if stepped != wantStepped || sparseRounds < int64(n)/2 {
			t.Fatalf("workers=%d renorm walk: stepped %d (want %d), sparse rounds %d",
				workers, stepped, wantStepped, sparseRounds)
		}
	}
}

// TestSetSparseRoundsGuards pins the knob's default and the mid-phase
// panic string.
func TestSetSparseRoundsGuards(t *testing.T) {
	net := NewNetwork(graph.Cycle(4), 3)
	if net.denseOnly {
		t.Fatal("sparse execution should default on")
	}
	net.SetSparseRounds(false)
	if !net.denseOnly {
		t.Fatal("SetSparseRounds(false) did not latch")
	}
	net.SetSparseRounds(true)

	var msg string
	proc := NodeProcFunc(func(ctx *Ctx, v int) bool {
		if ctx.Round() == 0 && v == 0 {
			func() {
				defer func() { msg = Sprint(recover()) }()
				net.SetSparseRounds(false)
			}()
		}
		return false
	})
	if _, err := net.RunNodes("guard", proc, 4); err != nil {
		t.Fatal(err)
	}
	const want = "congest: SetSparseRounds called while a phase is running"
	if msg != want {
		t.Fatalf("mid-phase panic = %q, want %q", msg, want)
	}
	if net.denseOnly {
		t.Fatal("failed mid-phase toggle must not latch")
	}
}
