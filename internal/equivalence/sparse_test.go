package equivalence

import (
	"fmt"
	"reflect"
	"testing"

	"shortcutpa/internal/congest"
)

// sparse_test.go is the sparse-execution leg of the equivalence harness:
// the engine schedules each round from a bitmap of the nodes that stayed
// active or were sent to (internal/congest sched.go), and nothing a
// protocol can observe may depend on how that schedule is drained — same
// outputs, same Totals, same per-phase cost log, same error strings —
// across every fixture, both engines, and fresh-vs-Reset-reused networks.
// The sequential (workers=1) run is the reference; the schedule itself is
// checked against the model by congest's TestScheduleMatchesModel.

// TestSparseExecutionEquivalence compares, for every fixture, the
// sequential run against the parallel engine on workers 4 and 8 and
// against a Reset-reused replay on workers 4.
func TestSparseExecutionEquivalence(t *testing.T) {
	const seed = 2
	parallelWorkers := []int{4, 8}
	if testing.Short() {
		parallelWorkers = []int{4}
	}
	for _, p := range protocols() {
		p := p
		t.Run(p.name, func(t *testing.T) {
			want, err := execute(p, seed, 1)
			if err != nil {
				t.Fatalf("sequential baseline: %v", err)
			}
			check := func(label string, got *execution) {
				t.Helper()
				if got.Output != want.Output {
					t.Errorf("%s: output diverged\ngot:  %s\nwant: %s",
						label, clip(got.Output), clip(want.Output))
				}
				if got.Total != want.Total {
					t.Errorf("%s: total cost %+v, sequential baseline %+v", label, got.Total, want.Total)
				}
				if !reflect.DeepEqual(got.Phases, want.Phases) {
					t.Errorf("%s: per-phase cost log diverged", label)
				}
			}
			for _, w := range parallelWorkers {
				got, err := execute(p, seed, w)
				if err != nil {
					t.Fatalf("workers %d: %v", w, err)
				}
				check(fmt.Sprintf("workers %d", w), got)
			}
			reused, err := executeReused(p, seed, 4)
			if err != nil {
				t.Fatalf("reused: %v", err)
			}
			check("reused workers 4", reused)
		})
	}
}

// longTailSpec is the retry-tail fixture: crashing node 7 at round 60
// leaves CoreFast construction with one part that can never verify, and the
// retry ladder spins out a six-figure round count carrying barely any
// messages (~115k rounds, ~11k messages). It is the engine's worst-case
// rounds-per-message regime — exactly what sparse execution is for.
const longTailSpec = "crash=7@60"

// goldenLongTail pins the exact execution of the long-tail fixture at
// master seed 42: rounds, messages, the error, and the total Step count
// (ActivityStats), which must agree across engines and Reset reuse. The
// step count is engine activity, not model cost: it fell from 7,175,640
// to 28,696 when the router's start delays and verify windows began to
// park on Ctx.WakeAt timers instead of stepping every round, with rounds,
// messages and the error unchanged.
var goldenLongTail = struct {
	rounds, messages, stepped int64
	err                       string
}{
	rounds:   114527,
	messages: 11384,
	stepped:  28696,
	err:      "core: construction exceeded budget cap 5120 with 1 parts unverified",
}

// TestGoldenLongTailScenario is the seed-42 regression anchor for the
// fixture, run sequential, parallel, and (full mode) Reset-replayed
// parallel.
func TestGoldenLongTailScenario(t *testing.T) {
	byName := make(map[string]protocol)
	for _, p := range protocols() {
		byName[p.name] = p
	}
	p, ok := byName["corefast-pa"]
	if !ok {
		t.Fatal("no corefast-pa protocol in the harness")
	}
	sc, err := congest.ParseScenario(longTailSpec)
	if err != nil {
		t.Fatal(err)
	}
	type leg struct {
		label   string
		workers int
		reused  bool
	}
	legs := []leg{
		{"sequential", 1, false},
		{"workers 4", 4, false},
	}
	if !testing.Short() {
		legs = append(legs, leg{"reused workers 4", 4, true})
	}
	for _, l := range legs {
		net := congest.NewNetwork(p.graph(42), 42)
		net.SetWorkers(l.workers)
		ex, err := runScenario(p, net, sc)
		if err != nil {
			t.Fatalf("%s: %v", l.label, err)
		}
		if l.reused {
			net.Reset()
			out, rerr := p.run(net)
			ex = &faultExecution{Output: out, Total: net.Total(), Phases: net.Phases()}
			if rerr != nil {
				ex.Err = rerr.Error()
			}
		}
		if ex.Total.Rounds != goldenLongTail.rounds || ex.Total.Messages != goldenLongTail.messages {
			t.Errorf("%s: cost = %d rounds / %d messages, golden %d / %d",
				l.label, ex.Total.Rounds, ex.Total.Messages, goldenLongTail.rounds, goldenLongTail.messages)
		}
		if ex.Err != goldenLongTail.err {
			t.Errorf("%s: err = %q, golden %q", l.label, ex.Err, goldenLongTail.err)
		}
		stepped, rounds := net.ActivityStats()
		if stepped != goldenLongTail.stepped {
			t.Errorf("%s: stepped = %d, golden %d", l.label, stepped, goldenLongTail.stepped)
		}
		if rounds != goldenLongTail.rounds {
			t.Errorf("%s: ActivityStats counted %d rounds, golden %d", l.label, rounds, goldenLongTail.rounds)
		}
	}
}
