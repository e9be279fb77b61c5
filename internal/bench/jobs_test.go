package bench

import (
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
)

// jobs_test.go covers the multi-run serving mode: spec parsing, the JSONL
// field-stability contract, bit-identical results at every pool width and
// cache setting (the serving-side determinism proof), and the shared-pool
// race leg that the CONGEST_WORKERS=4 CI matrix drives through the parallel
// engine.

func TestParseJobSpec(t *testing.T) {
	spec, err := ParseJobSpec("protocols=mst,domset; graphs=torus:400,random:120; seeds=1,2,5-8")
	if err != nil {
		t.Fatal(err)
	}
	want := JobSpec{
		Protocols: []string{"mst", "domset"},
		Graphs:    []GraphSpec{{Family: "torus", N: 400}, {Family: "random", N: 120}},
		Seeds:     []int64{1, 2, 5, 6, 7, 8},
	}
	if !reflect.DeepEqual(spec, want) {
		t.Errorf("parsed %+v, want %+v", spec, want)
	}

	// protocols=all and a defaulted seeds clause expand at Expand time.
	spec, err = ParseJobSpec("protocols=all;graphs=grid:64")
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if want := len(JobProtocolNames()); len(jobs) != want {
		t.Errorf("all-protocols single-graph single-seed spec expanded to %d jobs, want %d", len(jobs), want)
	}
	for i, j := range jobs {
		if j.Index != i || j.Seed != 1 {
			t.Errorf("job %d: index %d seed %d, want index %d seed 1", i, j.Index, j.Seed, i)
		}
	}

	// A scenario clause rides inside the jobs grammar using the scenario
	// grammar's '+' separator form.
	spec, err = ParseJobSpec("graphs=torus:36;scenario=crash=7@2+seed-faults=0.01")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Scenario != "crash=7@2+seed-faults=0.01" {
		t.Errorf("scenario clause parsed to %q", spec.Scenario)
	}

	for _, bad := range []string{
		"",                                  // no graphs
		"graphs=torus",                      // missing :n
		"graphs=torus:x",                    // bad size
		"graphs=torus:400;seeds=9-2",        // descending range
		"graphs=torus:400;frobs=1",          // unknown key
		"protocols",                         // not key=value
		"graphs=torus:400;scenario=crash=7", // scenario grammar error
		"graphs=torus:400;scenario=seed-faults=2", // rate out of range
	} {
		if _, err := ParseJobSpec(bad); err == nil {
			t.Errorf("ParseJobSpec(%q) succeeded, want error", bad)
		}
	}
}

// TestParseJobSpecBounds pins the up-front refusals that keep a hostile
// spec from running the process out of memory or into an endless loop,
// and the accepted inputs right at each bound.
func TestParseJobSpecBounds(t *testing.T) {
	for _, c := range []struct {
		spec, err string
	}{
		{"graphs=torus:-5", "size must be in [1, 2097152]"},
		{"graphs=torus:0", "size must be in [1, 2097152]"},
		{"graphs=torus:1000000000", "size must be in [1, 2097152]"},
		{"graphs=torus:2097153", "size must be in [1, 2097152]"},
		// v++ past MaxInt64 used to wrap and append forever.
		{"graphs=torus:9;seeds=9223372036854775806-9223372036854775807", ""},
		{"graphs=torus:9;seeds=0-9000000000000000000", "more than 65536"},
		{"graphs=torus:9;seeds=1-65537", "more than 65536"},
		{"graphs=torus:9;seeds=1-65535,7,8", "more than 65536"},
		{"graphs=torus:9;seeds=1-65535,7", ""},
		{"graphs=torus:2097152", ""},
		{"graphs=torus:1", ""},
	} {
		_, err := ParseJobSpec(c.spec)
		if c.err == "" && err != nil {
			t.Errorf("ParseJobSpec(%q) = %v, want success", c.spec, err)
		}
		if c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err)) {
			t.Errorf("ParseJobSpec(%q) = %v, want an error containing %q", c.spec, err, c.err)
		}
	}
	spec, err := ParseJobSpec("graphs=torus:9;seeds=9223372036854775806-9223372036854775807")
	if err != nil || !slices.Equal(spec.Seeds, []int64{math.MaxInt64 - 1, math.MaxInt64}) {
		t.Errorf("top-of-range seeds = %v, %v", spec.Seeds, err)
	}
	if _, err := (JobSpec{Graphs: []GraphSpec{{Family: "torus", N: maxJobGraphN + 1}}}).Expand(); err == nil {
		t.Error("Expand accepted a graph past maxJobGraphN")
	}
}

func TestExpandRejectsUnknownNames(t *testing.T) {
	if _, err := (JobSpec{Graphs: []GraphSpec{{Family: "moebius", N: 100}}}).Expand(); err == nil {
		t.Error("unknown family accepted")
	}
	if _, err := (JobSpec{Protocols: []string{"frob"}, Graphs: []GraphSpec{{Family: "torus", N: 100}}}).Expand(); err == nil {
		t.Error("unknown protocol accepted")
	}
	if _, err := (JobSpec{Graphs: []GraphSpec{{Family: "torus", N: 0}}}).Expand(); err == nil {
		t.Error("non-positive size accepted")
	}
}

// TestJobsJSONLFieldStability golden-pins the Result encoding: pabench
// -jobs streams one such line per run, and downstream consumers key on the
// exact field names and order. Changing this encoding is an output-format
// break and must update this golden deliberately.
func TestJobsJSONLFieldStability(t *testing.T) {
	line, err := json.Marshal(Result{
		Job: 3, Protocol: "mst", Family: "torus", N: 400, Seed: 7,
		Reused: true, Rounds: 123, Messages: 4567,
		Output: "00000000deadbeef", MS: 1.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	const golden = `{"job":3,"protocol":"mst","family":"torus","n":400,"seed":7,"reused":true,"rounds":123,"messages":4567,"output":"00000000deadbeef","ms":1.5}`
	if string(line) != golden {
		t.Errorf("JSONL encoding drifted:\n got: %s\nwant: %s", line, golden)
	}
	// scenario and err are omitempty: fault-free successful runs carry
	// neither, and a faulty run's line names its scenario.
	withErr, err := json.Marshal(Result{Scenario: "crash=7@2", Err: "budget"})
	if err != nil {
		t.Fatal(err)
	}
	const goldenErr = `{"job":0,"protocol":"","family":"","n":0,"seed":0,"reused":false,"rounds":0,"messages":0,"output":"","ms":0,"scenario":"crash=7@2","err":"budget"}`
	if string(withErr) != goldenErr {
		t.Errorf("JSONL error encoding drifted:\n got: %s\nwant: %s", withErr, goldenErr)
	}
}

// drainSpec runs a spec and returns its results in queue order with the
// wall-clock field zeroed — the deterministic projection two drains of the
// same spec must agree on bit for bit.
func drainSpec(t *testing.T, spec JobSpec) ([]Result, Summary) {
	t.Helper()
	var results []Result
	sum, err := RunJobs(spec, func(r Result) { results = append(results, r) })
	if err != nil {
		t.Fatal(err)
	}
	if sum.Runs != len(results) {
		t.Fatalf("summary counts %d runs, emitted %d", sum.Runs, len(results))
	}
	sort.Slice(results, func(i, j int) bool { return results[i].Job < results[j].Job })
	for i := range results {
		results[i].MS = 0
		if results[i].Err != "" {
			t.Fatalf("job %d (%s/%s) failed: %s", results[i].Job, results[i].Protocol, results[i].Family, results[i].Err)
		}
	}
	return results, sum
}

// smallSpec is the shared deterministic fixture: two topologies, two seeds,
// a randomized protocol (domset — per-node PRNG streams) and a multi-phase
// one (verify), so both PRNG reuse and cost accounting are exercised.
func smallSpec() JobSpec {
	return JobSpec{
		Protocols: []string{"domset", "verify"},
		Graphs:    []GraphSpec{{Family: "torus", N: 36}, {Family: "random", N: 48}},
		Seeds:     []int64{1, 2},
	}
}

// TestJobsDeterministicAcrossPoolAndCache is the serving-side bit-identity
// proof: the same spec drained sequentially without reuse (pool=1,
// cache disabled — every run on a fresh network), sequentially with full
// reuse, and concurrently (pool=4) must produce identical Results — same
// digests, same Rounds/Messages — differing only in the reused flag and
// completion order.
func TestJobsDeterministicAcrossPoolAndCache(t *testing.T) {
	base := smallSpec()
	base.PoolWorkers = 1
	base.Cache = -1
	fresh, _ := drainSpec(t, base)

	reusing := smallSpec()
	reusing.PoolWorkers = 1
	warm, sum := drainSpec(t, reusing)
	if sum.Reused == 0 {
		t.Error("sequential drain with adjacent same-topology jobs reused no network")
	}

	wide := smallSpec()
	wide.PoolWorkers = 4
	concurrent, _ := drainSpec(t, wide)

	for i := range fresh {
		fresh[i].Reused = false
		warm[i].Reused = false
		concurrent[i].Reused = false
	}
	if !reflect.DeepEqual(fresh, warm) {
		t.Errorf("reused-network drain diverged from fresh-network drain")
	}
	if !reflect.DeepEqual(fresh, concurrent) {
		t.Errorf("pool=4 drain diverged from sequential drain")
	}
}

// TestJobsCacheBound: a cache of capacity 1 across two alternating
// topologies still completes with identical results — eviction never
// affects correctness, only hit rate.
func TestJobsCacheBound(t *testing.T) {
	spec := smallSpec()
	spec.PoolWorkers = 1
	spec.Cache = 1
	bounded, _ := drainSpec(t, spec)

	ref := smallSpec()
	ref.PoolWorkers = 1
	ref.Cache = -1
	fresh, _ := drainSpec(t, ref)
	for i := range fresh {
		fresh[i].Reused = false
		bounded[i].Reused = false
	}
	if !reflect.DeepEqual(fresh, bounded) {
		t.Error("cache-bounded drain diverged from fresh drain")
	}
}

// TestJobsSharedPoolRace drives concurrent jobs on distinct networks over
// the shared pool — under `go test -race` (and the CONGEST_WORKERS=4 CI
// leg, where every job's network additionally runs the parallel engine,
// nesting engine pools inside the serving pool) this is the standing data-
// race check on the serving path.
func TestJobsSharedPoolRace(t *testing.T) {
	spec := JobSpec{
		Protocols:   []string{"domset", "corefast-pa", "sssp"},
		Graphs:      []GraphSpec{{Family: "torus", N: 36}, {Family: "grid", N: 49}, {Family: "ladder", N: 40}},
		Seeds:       []int64{1, 2},
		PoolWorkers: 4,
	}
	results, sum := drainSpec(t, spec)
	if len(results) != 18 {
		t.Fatalf("expected 18 runs, got %d", len(results))
	}
	if sum.RunsPerSec <= 0 {
		t.Errorf("summary runs/sec = %v, want > 0", sum.RunsPerSec)
	}
}

// drainFaulty runs a spec whose scenario may legitimately make runs fail,
// returning queue-ordered results with MS zeroed. Unlike drainSpec it keeps
// Err: under faults an error (a protocol starved past its budget by dead
// edges) is a valid deterministic outcome, and the bit-identity tests below
// compare it like any other field.
func drainFaulty(t *testing.T, spec JobSpec) ([]Result, Summary) {
	t.Helper()
	var results []Result
	sum, err := RunJobs(spec, func(r Result) { results = append(results, r) })
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(results, func(i, j int) bool { return results[i].Job < results[j].Job })
	for i := range results {
		results[i].MS = 0
	}
	return results, sum
}

// faultySpec is the shared faulty serving fixture: a scripted crash plus a
// low random fault rate, over topologies small enough that most protocols
// still terminate.
func faultySpec() JobSpec {
	return JobSpec{
		Protocols: []string{"domset", "verify", "corefast-pa"},
		Graphs:    []GraphSpec{{Family: "torus", N: 36}, {Family: "grid", N: 49}},
		Seeds:     []int64{1, 2},
		Scenario:  "crash=7@40+seed-faults=0.002",
	}
}

// TestJobsScenarioDeterministicAcrossPoolAndCache is the faulty half of the
// serving determinism proof: a drain under a fault scenario is bit-identical
// whether networks are fresh, Reset-reused, or drained concurrently —
// SetScenario after Reset rewinds the fault state, so a warm network replays
// the same crashes the fresh one saw.
func TestJobsScenarioDeterministicAcrossPoolAndCache(t *testing.T) {
	base := faultySpec()
	base.PoolWorkers = 1
	base.Cache = -1
	fresh, _ := drainFaulty(t, base)

	reusing := faultySpec()
	reusing.PoolWorkers = 1
	warm, sum := drainFaulty(t, reusing)
	if sum.Reused == 0 {
		t.Error("faulty drain with adjacent same-topology jobs reused no network")
	}

	wide := faultySpec()
	wide.PoolWorkers = 4
	concurrent, _ := drainFaulty(t, wide)

	for i := range fresh {
		fresh[i].Reused = false
		warm[i].Reused = false
		concurrent[i].Reused = false
		if fresh[i].Scenario == "" {
			t.Fatalf("job %d result does not name its scenario", i)
		}
	}
	if !reflect.DeepEqual(fresh, warm) {
		t.Errorf("faulty reused-network drain diverged from fresh-network drain")
	}
	if !reflect.DeepEqual(fresh, concurrent) {
		t.Errorf("faulty pool=4 drain diverged from sequential drain")
	}
}

// TestJobsScenarioTopologyMismatch: a scenario naming a node a small graph
// does not have fails that run (Result.Err), not the drain.
func TestJobsScenarioTopologyMismatch(t *testing.T) {
	spec := JobSpec{
		Protocols:   []string{"domset"},
		Graphs:      []GraphSpec{{Family: "torus", N: 16}},
		Scenario:    "crash=5000@1",
		PoolWorkers: 1,
	}
	results, sum := drainFaulty(t, spec)
	if len(results) != 1 || sum.Errors != 1 {
		t.Fatalf("got %d results, %d errors, want 1 and 1", len(results), sum.Errors)
	}
	if results[0].Err == "" {
		t.Error("topology-mismatched scenario did not surface in Result.Err")
	}
}

// TestJobsFaultyScenarioSharedPoolRace drives a faulty-scenario queue over
// the shared pool — the CONGEST_WORKERS=4 race CI leg runs this with every
// job's network on the parallel engine, making it the standing data-race
// check on the fault path (applyFaults runs on the coordinator between
// worker waves; this test would trip -race if that ever stopped being true).
func TestJobsFaultyScenarioSharedPoolRace(t *testing.T) {
	spec := faultySpec()
	spec.PoolWorkers = 4
	results, sum := drainFaulty(t, spec)
	if want := 12; len(results) != want {
		t.Fatalf("expected %d runs, got %d", want, len(results))
	}
	if sum.RunsPerSec <= 0 {
		t.Errorf("summary runs/sec = %v, want > 0", sum.RunsPerSec)
	}
}
