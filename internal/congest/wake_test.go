package congest

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"shortcutpa/internal/graph"
)

// wake_test.go covers the timer contract (timers.go): a node that parks on
// Ctx.WakeAt(r) must yield exactly the execution of the same node
// returning true every round until r — same outputs, Rounds and Messages,
// under faults and past the budget — on both engines, while stepping less.

// sleepRun runs the timer reference protocol on g: node 0 starts a flood in
// round 0, every node floods once on its first flood message, and every
// node v with wake(v) > 0 broadcasts a second message in round wake(v). With
// sleep false such a node waits by returning true while its round is
// earlier (the spinning form); with sleep true it sets WakeAt(wake(v)) in
// round 0 and parks (the sleeping form). It returns a transcript of the
// execution and the network's step count.
func sleepRun(t *testing.T, g *graph.Graph, workers int, spec string, wake func(v int) int64, budget int64, sleep bool) (string, int64) {
	t.Helper()
	n := g.N()
	net := NewNetworkWorkers(g, 5, workers)
	if spec != "" {
		sc, err := ParseScenario(spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := net.SetScenario(sc); err != nil {
			t.Fatal(err)
		}
	}
	flooded := make([]bool, n)
	acted := make([]int64, n)
	heard := make([]int64, n)
	proc := NodeProcFunc(func(ctx *Ctx, v int) bool {
		r := ctx.Round()
		flood := v == 0 && r == 0
		ctx.ForRecv(func(_ int, in Incoming) {
			heard[v] = heard[v]*31 + r*8 + int64(in.Port)*2 + int64(in.Msg.Kind)
			flood = flood || in.Msg.Kind == 1
		})
		if flood && !flooded[v] {
			flooded[v] = true
			ctx.Broadcast(Message{Kind: 1})
		}
		w := wake(v)
		if w > 0 && r == w {
			acted[v] = r
			ctx.Broadcast(Message{Kind: 2, A: int64(v)})
		}
		if !sleep {
			return r < w
		}
		if w > 0 && r == 0 {
			ctx.WakeAt(w)
		}
		return false
	})
	cost, err := net.RunNodes("wake", proc, budget)
	crashed, dead := net.FaultCounts()
	stepped, _ := net.ActivityStats()
	return fmt.Sprintf("err=%v cost=%+v faults=%d/%d acted=%v heard=%v",
		err, cost, crashed, dead, acted, heard), stepped
}

// TestWakeAtMatchesSpinning compares the spinning and sleeping forms on
// each fixture at workers 1, 2 and 4: the transcripts must match each
// other and the sequential run.
func TestWakeAtMatchesSpinning(t *testing.T) {
	node2 := func(v int) int64 {
		if v == 2 {
			return 10
		}
		return 0
	}
	// Wake rounds lie past the flood (the torus's diameter is 8), so no
	// node floods and acts in the same round.
	spread := func(v int) int64 {
		if v%5 == 0 {
			return int64(10 + v%7)
		}
		return 0
	}
	cases := []struct {
		name   string
		g      func() *graph.Graph
		spec   string
		wake   func(v int) int64
		budget int64
		fewer  bool // the sleeping form must step strictly fewer nodes
	}{
		{"fault-free", func() *graph.Graph { return graph.Path(3) }, "", node2, 64, true},
		{"torus", func() *graph.Graph { return graph.Torus(8, 8) }, "", spread, 64, true},
		// The sleeping node crashes before its round: its timer must not
		// hold the phase open (the spinning form ends after 4 rounds).
		{"sleeper crashes", func() *graph.Graph { return graph.Path(3) }, "crash=2@3", node2, 64, false},
		{"torus sleepers crash", func() *graph.Graph { return graph.Torus(8, 8) }, "crash=10@4,15@11,40@2", spread, 64, false},
		// A neighbor crashes: the sleeper still acts, on a dead port.
		{"neighbor crashes", func() *graph.Graph { return graph.Path(3) }, "crash=1@3", node2, 64, false},
		// The timer lies past the budget: both forms exceed it alike.
		{"past budget", func() *graph.Graph { return graph.Path(3) },
			"", func(v int) int64 { return 10 * node2(v) }, 20, false},
	}
	for _, c := range cases {
		want, _ := sleepRun(t, c.g(), 1, c.spec, c.wake, c.budget, false)
		for _, workers := range []int{1, 2, 4} {
			spin, spinStepped := sleepRun(t, c.g(), workers, c.spec, c.wake, c.budget, false)
			got, stepped := sleepRun(t, c.g(), workers, c.spec, c.wake, c.budget, true)
			if spin != want || got != want {
				t.Fatalf("%s workers=%d diverged:\n spin  %s\n sleep %s\n want  %s", c.name, workers, spin, got, want)
			}
			if c.fewer && stepped >= spinStepped {
				t.Errorf("%s workers=%d: sleeping stepped %d nodes, spinning %d", c.name, workers, stepped, spinStepped)
			}
		}
		if c.name == "sleeper crashes" && !strings.Contains(want, "cost={Rounds:4 ") {
			t.Errorf("sleeper crashes: %s, want 4 rounds", want)
		}
		if c.name == "past budget" && !strings.Contains(want, "exceeded round budget 20") {
			t.Errorf("past budget: %s, want a budget error", want)
		}
	}
}

// TestWakeAtNotLaterPanics pins the misuse contract: a timer for the
// current round or an earlier one is a protocol bug and panics on both
// engines.
func TestWakeAtNotLaterPanics(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		for _, delta := range []int64{0, -1} {
			net := NewNetworkWorkers(graph.Path(4), 1, workers)
			func() {
				defer func() {
					if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "set a timer for round") {
						t.Errorf("workers=%d delta=%d: recovered %v, want the timer panic", workers, delta, r)
					}
				}()
				net.RunNodes("bad", NodeProcFunc(func(ctx *Ctx, v int) bool {
					if v == 2 && ctx.Round() == 1 {
						ctx.WakeAt(ctx.Round() + delta)
					}
					return ctx.Round() < 1
				}), 10)
			}()
		}
	}
}

// TestWakeAtAbortLeavesNothing aborts a phase with timers pending — on its
// budget, or on a protocol panic — and requires the next phase, with or
// without a Network.Reset in between, to inherit none of them: it must
// step every node once and quiesce after one round.
func TestWakeAtAbortLeavesNothing(t *testing.T) {
	const n = 6
	for _, workers := range []int{1, 2, 4} {
		for _, abort := range []string{"budget", "panic"} {
			for _, reset := range []bool{false, true} {
				label := fmt.Sprintf("workers=%d abort=%s reset=%v", workers, abort, reset)
				net := NewNetworkWorkers(graph.Path(n), 3, workers)
				func() {
					defer func() { _ = recover() }()
					_, err := net.RunNodes("abort", NodeProcFunc(func(ctx *Ctx, v int) bool {
						if ctx.Round() == 0 {
							// Still pending when the phase stops: left
							// behind, they would fire in the next phase's
							// first rounds.
							ctx.WakeAt(int64(7 + v))
							ctx.WakeAt(int64(8 + v))
						}
						if abort == "panic" && ctx.Round() == 3 {
							panic("abort")
						}
						return ctx.Round() < 3
					}), 5)
					var be *BudgetExceededError
					if abort == "budget" && !errors.As(err, &be) {
						t.Errorf("%s: err = %v, want a budget error", label, err)
					}
				}()
				if reset {
					net.Reset()
				}
				steps := make([]int, n)
				cost, err := net.RunNodes("next", NodeProcFunc(func(ctx *Ctx, v int) bool {
					steps[v]++
					return false
				}), 64)
				if err != nil || cost.Rounds != 1 {
					t.Errorf("%s: next phase cost %+v err %v, want 1 round", label, cost, err)
				}
				for v, s := range steps {
					if s != 1 {
						t.Errorf("%s: node %d stepped %d times, want 1", label, v, s)
					}
				}
			}
		}
	}
}
