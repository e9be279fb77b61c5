package congest

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"shortcutpa/internal/graph"
)

// sparse_test.go covers sparse-activity round execution: the
// scheduled-node bitmaps (sched.go) and sender-side dirty tracking that make
// a round cost O(n/4096 + awake + delivered) instead of O(n + slots).
// TestScheduleMatchesModel checks the stepped set of every round against
// the model's scheduling rule directly; the other tests run sparse-shaped
// workloads on the parallel engine and require the complete observable
// outcome — outputs, costs, fault counts, ActivityStats — to be
// bit-identical to the sequential (workers=1) run.

// tokenWalk runs a single token down a path graph: node 0 launches it in
// round 0 (when every node steps) and each node forwards it to its higher
// neighbor the round it arrives. After round 0 exactly one node is
// scheduled per round — the sparsest protocol the engine can execute.
func tokenWalk(t *testing.T, n, workers int, spec string) (string, *Network) {
	t.Helper()
	g := graph.Path(n)
	net := NewNetworkWorkers(g, 7, workers)
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

// TestSparseTokenWalkMatchesSequential pins bit-identity on the sparse
// extreme: the parallel engine must reproduce the sequential run's per-node
// step counts, arrival rounds, Metrics and ActivityStats, and the second
// ActivityStats value must count every engine round.
func TestSparseTokenWalkMatchesSequential(t *testing.T) {
	const n = 400
	want, wantNet := tokenWalk(t, n, 1, "")
	wantStepped, wantRounds := wantNet.ActivityStats()
	if wantRounds != wantNet.Total().Rounds {
		t.Fatalf("ActivityStats counted %d rounds, the phase ran %d", wantRounds, wantNet.Total().Rounds)
	}
	for _, workers := range []int{2, 4} {
		got, net := tokenWalk(t, n, workers, "")
		if got != want {
			t.Fatalf("workers=%d diverged:\n got %s\nwant %s", workers, got, want)
		}
		if stepped, rounds := net.ActivityStats(); stepped != wantStepped || rounds != wantRounds {
			t.Fatalf("workers=%d ActivityStats = (%d, %d), want (%d, %d)",
				workers, stepped, rounds, wantStepped, wantRounds)
		}
	}
	// The walk steps every node once in round 0, then one node per hop plus
	// the quiescence tail — activity linear in n, not n per round.
	if wantStepped > int64(3*n) {
		t.Fatalf("token walk stepped %d nodes total, want O(n)=%d", wantStepped, 3*n)
	}
}

// pulseRun is the activity-swing workload: beacon nodes (every 17th) stay
// persistently active and broadcast every 8th round, waking a cascade that
// echoes for a few rounds and decays, so the schedule repeatedly grows to
// most of the graph and shrinks back to the beacons.
func pulseRun(t *testing.T, workers int, spec string, abortFirst bool) (string, *Network) {
	t.Helper()
	g := graph.Torus(12, 12)
	net := NewNetworkWorkers(g, 9, workers)
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
		// Blow the round budget mid-cascade: the abort leaves schedule
		// marks, dirty segments, and the fault cursor mid-flight, and the
		// next phase plus Reset must rewind all of it.
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

// TestSparsePulseCascadeMatchesSequential pins bit-identity across the
// activity swings, on the parallel engine against the sequential one.
func TestSparsePulseCascadeMatchesSequential(t *testing.T) {
	want, _ := pulseRun(t, 1, "", false)
	for _, workers := range []int{2, 4} {
		if got, _ := pulseRun(t, workers, "", false); got != want {
			t.Fatalf("workers=%d pulse diverged:\n got %s\nwant %s", workers, got, want)
		}
	}
}

// TestSparseCrashEvictsFrontier pins the fault interaction: a node crashed
// at round r is dropped from the schedule that same round — it neither
// steps nor forwards, whether it was woken (token walk) or persistently
// active (pulse beacon) when the crash landed.
func TestSparseCrashEvictsFrontier(t *testing.T) {
	const n = 400
	// crash=150@150: the token wakes node 150 via the round-149 send, and
	// the crash applies at the round-150 boundary — the node is already
	// marked when it dies. The walk must stop there.
	for _, spec := range []string{"crash=150@150", "crash=150@100"} {
		want, wantNet := tokenWalk(t, n, 1, spec)
		if cost := wantNet.Total(); cost.Rounds >= int64(n) {
			t.Fatalf("spec %q: walk ran %d rounds, crash did not stop it", spec, cost.Rounds)
		}
		for _, workers := range []int{2, 4} {
			if got, _ := tokenWalk(t, n, workers, spec); got != want {
				t.Fatalf("spec %q workers=%d diverged:\n got %s\nwant %s", spec, workers, got, want)
			}
		}
	}
	// Beacon 34 is persistently active when it crashes mid-run; edge 3-4
	// dies while cascades are crossing it.
	const spec = "crash=34@12;drop=3-4@6"
	want, _ := pulseRun(t, 1, spec, false)
	for _, workers := range []int{2, 4} {
		if got, _ := pulseRun(t, workers, spec, false); got != want {
			t.Fatalf("faulty pulse workers=%d diverged:\n got %s\nwant %s", workers, got, want)
		}
	}
}

// TestSparseResetRewindsFrontierState aborts a faulty pulse run mid-cascade
// — schedule marks set, dirty segments filled, fault cursor advanced —
// then Resets and reruns. The rerun must be bit-identical to a fresh
// network's run on both engines.
func TestSparseResetRewindsFrontierState(t *testing.T) {
	const spec = "crash=40@9;drop=3-4@6"
	for _, workers := range []int{1, 4} {
		fresh, _ := pulseRun(t, workers, spec, false)
		reused, _ := pulseRun(t, workers, spec, true)
		if reused != fresh {
			t.Fatalf("workers=%d: post-Reset run diverged from fresh:\n got %s\nwant %s",
				workers, reused, fresh)
		}
	}
}

// scheduleSizes are the bitmap-boundary topologies: Path and Torus at node
// counts one below, at, and one above a 64-node word and a 4096-node
// summary word, plus a count spanning three summary words.
func scheduleSizes() []func() *graph.Graph {
	var builds []func() *graph.Graph
	for _, n := range []int{63, 64, 65, 4095, 4096, 4097, 8193} {
		builds = append(builds, func() *graph.Graph { return graph.Path(n) })
	}
	for _, rc := range [][2]int{{7, 9}, {8, 8}, {5, 13}, {63, 65}, {64, 64}, {17, 241}, {3, 2731}} {
		builds = append(builds, func() *graph.Graph { return graph.Torus(rc[0], rc[1]) })
	}
	return builds
}

// TestSparseDegenerateSizes runs tiny graphs (including an edgeless single
// node) and the bitmap-boundary sizes through both engines: every run must
// match the sequential one.
func TestSparseDegenerateSizes(t *testing.T) {
	builds := append([]func() *graph.Graph{
		func() *graph.Graph { return graph.Path(1) },
		func() *graph.Graph { return graph.Path(2) },
		func() *graph.Graph { return graph.Cycle(3) },
	}, scheduleSizes()...)
	for bi, build := range builds {
		g := build()
		run := func(workers int) string {
			net := NewNetworkWorkers(g, 5, workers)
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
		want := run(1)
		for _, workers := range []int{2, 3} {
			if got := run(workers); got != want {
				t.Fatalf("graph %d (n=%d) workers=%d: got %s, want %s",
					bi, g.N(), workers, got, want)
			}
		}
	}
}

// TestSparseRenormInterplay forces stamp renormalization every 48 rounds
// under a 300-round walk: the schedule-mark dedup rides the wakeNext
// stamps, which renormStamps rebases, and the bitmaps themselves hold no
// stamps — a renorm boundary between a mark and its drain must be
// invisible. The reference run renormalizes never.
func TestSparseRenormInterplay(t *testing.T) {
	const n = 300
	want, wantNet := tokenWalk(t, n, 1, "")
	wantStepped, _ := wantNet.ActivityStats()
	old := stampRenormThreshold
	stampRenormThreshold = 48
	defer func() { stampRenormThreshold = old }()
	for _, workers := range []int{1, 4} {
		got, net := tokenWalk(t, n, workers, "")
		if got != want {
			t.Fatalf("workers=%d renorm walk diverged:\n got %s\nwant %s", workers, got, want)
		}
		if stepped, _ := net.ActivityStats(); stepped != wantStepped {
			t.Fatalf("workers=%d renorm walk: stepped %d, want %d", workers, stepped, wantStepped)
		}
	}
}

// TestScheduleMatchesModel checks every round's stepped set against the
// model's scheduling rule, computed from a record of what the protocol did
// rather than from another engine path: round 0 steps every live node;
// round r > 0 steps exactly the nodes whose Step returned true in round
// r-1 plus the receivers of round r-1's sends on live ports, minus crashed
// nodes. A send made while its edge was up still schedules its receiver if
// the edge dies at the next boundary. The sequential engine must step the
// set in ascending order; the parallel engine must step the same set.
func TestScheduleMatchesModel(t *testing.T) {
	// Every 31st node stays active and broadcasts each round. The scenario
	// crashes a node before round 0, two of those beacons mid-run, and a
	// path neighbor of beacon 31 the round after 31 sent to it; it drops
	// edge 30-31 right after a beacon send crossed it, and one more edge.
	// Both dropped edges exist in every Path and Torus of scheduleSizes.
	crashes := map[int]int64{5: 0, 62: 4, 32: 6, 31: 7}
	const spec = "crash=5@0,62@4,32@6,31@7;drop=1-2@2,30-31@5"
	const rounds = 12
	for bi, build := range scheduleSizes() {
		g := build()
		n := g.N()
		csr := g.CSR()
		for _, faulty := range []bool{false, true} {
			for _, workers := range []int{1, 2, 3, 4} {
				net := NewNetworkWorkers(g, 11, workers)
				if faulty {
					sc, err := ParseScenario(spec)
					if err != nil {
						t.Fatal(err)
					}
					if err := net.SetScenario(sc); err != nil {
						t.Fatal(err)
					}
				}
				// Per-node logs (each written only by the goroutine stepping
				// that node), plus the global step order at workers=1.
				type send struct{ round, to int32 }
				steps := make([][]int32, n)
				trues := make([][]int32, n)
				sends := make([][]send, n)
				var order [][2]int32
				proc := NodeProcFunc(func(ctx *Ctx, v int) bool {
					r := ctx.Round()
					steps[v] = append(steps[v], int32(r))
					if workers == 1 {
						order = append(order, [2]int32{int32(r), int32(v)})
					}
					ctx.ForRecv(func(int, Incoming) {})
					if r >= rounds {
						return false
					}
					h := uint64(v)*0x9E3779B97F4A7C15 ^ uint64(r+1)*0xBF58476D1CE4E5B9
					h ^= h >> 29
					h *= 0x94D049BB133111EB
					h ^= h >> 32
					beacon := v%31 == 0
					for p := 0; p < ctx.Degree(); p++ {
						if beacon || h>>(8+4*p)&7 == 0 {
							if !ctx.PortDown(p) {
								sends[v] = append(sends[v], send{int32(r), csr.PortTo[int(csr.RowStart[v])+p]})
							}
							ctx.Send(p, Message{A: int64(v)})
						}
					}
					if beacon || h&7 == 0 {
						trues[v] = append(trues[v], int32(r))
						return true
					}
					return false
				})
				cost, err := net.RunNodes("model", proc, rounds+4)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("graph %d (n=%d) faulty=%v workers=%d", bi, n, faulty, workers)
				live := func(v int, r int64) bool {
					cr, ok := crashes[v]
					return !faulty || !ok || r < cr
				}
				got := make([][]int32, cost.Rounds+1)
				want := make([][]int32, cost.Rounds+1)
				next := make([]bool, n)
				for v := 0; v < n; v++ {
					for _, r := range steps[v] {
						got[r] = append(got[r], int32(v))
					}
				}
				for r := int64(0); r <= cost.Rounds; r++ {
					if r > 0 {
						clear(next)
						for v := 0; v < n; v++ {
							for _, tr := range trues[v] {
								if int64(tr) == r-1 {
									next[v] = true
								}
							}
							for _, s := range sends[v] {
								if int64(s.round) == r-1 {
									next[s.to] = true
								}
							}
						}
					}
					for v := 0; v < n; v++ {
						if (r == 0 || next[v]) && live(v, r) {
							want[r] = append(want[r], int32(v))
						}
					}
					if r == cost.Rounds {
						if len(want[r]) != 0 {
							t.Fatalf("%s: quiesced after %d rounds with %d nodes still scheduled", label, r, len(want[r]))
						}
						break
					}
					if !slices.Equal(got[r], want[r]) {
						t.Fatalf("%s: round %d stepped %d nodes, model schedules %d; %s",
							label, r, len(got[r]), len(want[r]), setDiff(got[r], want[r]))
					}
				}
				if workers == 1 {
					var model [][2]int32
					for r, vs := range want {
						for _, v := range vs {
							model = append(model, [2]int32{int32(r), v})
						}
					}
					if !slices.Equal(order, model) {
						t.Fatalf("%s: sequential step order is not ascending by round and node", label)
					}
				}
			}
		}
	}
}

// setDiff describes how two ascending node lists differ: the first few
// nodes only in got, and the first few only in want.
func setDiff(got, want []int32) string {
	var extra, missing []int32
	i, j := 0, 0
	for i < len(got) || j < len(want) {
		switch {
		case j == len(want) || (i < len(got) && got[i] < want[j]):
			extra = append(extra, got[i])
			i++
		case i == len(got) || want[j] < got[i]:
			missing = append(missing, want[j])
			j++
		default:
			i++
			j++
		}
	}
	return fmt.Sprintf("extra %v, missing %v", extra[:min(len(extra), 8)], missing[:min(len(missing), 8)])
}
