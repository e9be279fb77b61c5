// Command e2ebench is the repository's end-to-end benchmark. It runs one
// workload (a whole MST, a PA build plus queries, or the engine set-up on a
// large torus) in a closed loop, one instance at a time, checks every result
// against an offline oracle, and prints every metric by name and unit. The
// last line of standard output is a JSON summary.
//
//	go run . --workload mst-random --seed 7 --seconds 30 --trace 0
//
// With --trace 1 it alternates untraced and traced executions of each
// instance, records spans around every public call it makes, profiles the
// traced executions, and reports per-layer metrics instead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"time"

	"shortcutpa/internal/congest"
)

func main() {
	name := flag.String("workload", "", "workload: mst-random, pa-gridstar, tree-torus, or all three in turn")
	seed := flag.Int64("seed", 1, "workload seed; the same seed generates the same instances")
	secs := flag.Float64("seconds", 30, "measuring time; the fixed instance set always runs once")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	dir := flag.String("out", filepath.Join(".bench_build", "e2ebench"), "directory for spans and CPU profiles")
	flag.Parse()

	names := []string{*name}
	if *name == "all" {
		names = []string{"mst-random", "pa-gridstar", "tree-torus"}
	}
	for _, name := range names {
		w, ok := workloads()[name]
		if !ok || (*trace != 0 && *trace != 1) {
			flag.Usage()
			os.Exit(2)
		}
		if err := benchmark(w, *seed, *secs, *trace == 1, *dir); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			os.Exit(1)
		}
	}
}

// execution is one instance set up and run once.
type execution struct {
	setupS, runS float64
	rssMiB       float64 // measured only by peak-RSS executions
	n            int
	cost         congest.Metrics
	stepped      int64
	sparse       int64
	memBytes     int64
	ledger       ledger
	ob           observed
	err          error // a failed call or an oracle mismatch
}

// execute sets up and runs one instance, from a collected heap. With rss it
// first returns the heap to the OS and restarts the peak-RSS counter, so the
// peak is this instance's alone. The returned error is a fault of the
// benchmark itself; the program's failures go to execution.err.
func execute(w *workload, seed int64, tr *tracer, id int, rss bool) (execution, error) {
	x := execution{ob: observed{attempts: -1}}
	runtime.GC()
	if rss {
		debug.FreeOSMemory()
		if err := resetPeakRSS(); err != nil {
			return x, fmt.Errorf("reset peak RSS: %w", err)
		}
	}
	if err := tr.startProfile(); err != nil {
		return x, fmt.Errorf("CPU profile: %w", err)
	}
	tr.begin(id)
	var (
		in  input
		net *congest.Network
		out outcome
	)
	t0 := time.Now()
	tr.do("setup", func() error {
		tr.do("graph.gen", func() error {
			in = w.gen(rand.New(rand.NewSource(seed)))
			return nil
		})
		return tr.do("congest.new_network", func() error {
			net = congest.NewNetworkWorkers(in.g, seed, w.workers)
			return nil
		})
	})
	t1 := time.Now()
	tr.attach(net)
	err := tr.do("run", func() (err error) {
		out, err = w.run(tr, net, in, &x.ob)
		return err
	})
	t2 := time.Now()
	tr.end()
	if perr := tr.stopProfile(); perr != nil {
		return x, fmt.Errorf("CPU profile: %w", perr)
	}
	if rss {
		var err error
		if x.rssMiB, err = peakRSSMiB(); err != nil {
			return x, fmt.Errorf("peak RSS: %w", err)
		}
	}

	x.setupS, x.runS = t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds()
	x.n, x.cost, x.memBytes = net.N(), net.Total(), net.MemFootprint().Total()
	x.stepped, x.sparse = net.ActivityStats()
	if err == nil {
		x.ledger, err = rollup(net)
	}
	if err == nil && x.ob.attempts >= 0 && x.ledger.claims != x.ob.attempts {
		err = fmt.Errorf("ledger: %d core/corefast phases, Infra.Attempts is %d", x.ledger.claims, x.ob.attempts)
	}
	if err == nil {
		err = out.check()
	}
	x.err = err
	return x, nil
}

// Peak resident memory is measured on extra, untimed executions of the
// first instances of the set, before the timed loop: at least rssMin of
// them, more while rssSeconds have not passed. Timed executions keep the
// heap the previous one left: handing it back to the OS first would make each
// of them pay fresh page faults, which are slow and noisy.
const (
	rssMin     = 3
	rssSeconds = 3
)

// run is a benchmark run's executions. Every instance of the fixed set runs
// once, in order, before the loop repeats the set until the time is up.
type run struct {
	set      int
	mem      []execution // the untimed peak-RSS executions
	plain    []execution
	traced   []execution // traced[i] repeats plain[i]'s instance
	tr       *tracer
	attempts int
	failed   int
}

func measure(w *workload, seed int64, secs float64, tr *tracer) (*run, error) {
	rng := rand.New(rand.NewSource(seed))
	seeds := make([]int64, w.set)
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	r := &run{set: w.set, tr: tr}
	start := time.Now()
	for i := 0; i < w.set && (i < rssMin || time.Since(start).Seconds() < rssSeconds); i++ {
		x, err := execute(w, seeds[i], nil, 0, true)
		if err != nil {
			return nil, err
		}
		r.mem = append(r.mem, x)
	}
	start = time.Now()
	for i := 0; i < w.set || time.Since(start).Seconds() < secs; i++ {
		seed := seeds[i%w.set]
		if tr == nil {
			x, err := execute(w, seed, nil, 0, false)
			if err != nil {
				return nil, err
			}
			r.plain = append(r.plain, x)
			continue
		}
		// The pair's order alternates so neither side always runs second.
		var pair [2]execution
		for k := range pair {
			var err error
			if (i+k)%2 == 0 {
				pair[0], err = execute(w, seed, nil, 0, false)
			} else {
				pair[1], err = execute(w, seed, tr, len(r.traced), false)
			}
			if err != nil {
				return nil, err
			}
		}
		r.plain, r.traced = append(r.plain, pair[0]), append(r.traced, pair[1])
	}
	for i, x := range slices.Concat(r.mem, r.plain, r.traced) {
		r.attempts++
		fmt.Printf("execution %d: setup %.4f s, run %.4f s, %d rounds, %d messages",
			i, x.setupS, x.runS, x.cost.Rounds, x.cost.Messages)
		if x.rssMiB > 0 {
			fmt.Printf(", peak RSS %.1f MiB", x.rssMiB)
		}
		fmt.Println()
		if x.err != nil {
			r.failed++
			fmt.Printf("execution %d FAILED: %v\n", i, x.err)
		}
	}
	return r, nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func benchmark(w *workload, seed int64, secs float64, trace bool, dir string) error {
	var tr *tracer
	if trace {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		tr = newTracer(dir)
	}
	r, err := measure(w, seed, secs, tr)
	if err != nil {
		return err
	}
	var ms map[string]metric
	if trace {
		if ms, err = layerMetrics(r); err != nil {
			return err
		}
		path := filepath.Join(dir, fmt.Sprintf("spans-%s-%d.json", w.name, seed))
		if err := tr.write(path); err != nil {
			return err
		}
		fmt.Printf("spans: %d written to %s\n", len(tr.spans), path)
	} else {
		ms = endToEnd(r)
	}

	runs := make([]float64, len(r.plain))
	for i, x := range r.plain {
		runs[i] = x.runS
	}
	fmt.Printf("%s seed %d: %d untraced executions of a %d-instance set, %d traced; failed %d of %d (failed_frac %g)\n",
		w.name, seed, len(r.plain), r.set, len(r.traced), r.failed, r.attempts, float64(r.failed)/float64(r.attempts))
	if v, pct, ok := tail(runs); ok {
		fmt.Printf("run_s p%.1f = %.4f s over %d samples\n", pct, v, len(runs))
	} else {
		fmt.Printf("run_s tail: %d samples, 21 needed\n", len(runs))
	}
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-28s %14.6g %s\n", k, ms[k].Value, ms[k].Unit)
	}
	out, err := json.Marshal(summary{Correct: r.failed == 0, Attempted: r.attempts, Failed: r.failed, Metrics: ms})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// endToEnd reports the metrics a user of the system sees, from the
// untraced executions.
func endToEnd(r *run) map[string]metric {
	var setup, runS, rss []float64
	for _, x := range r.plain {
		setup, runS = append(setup, x.setupS), append(runS, x.runS)
	}
	for _, x := range r.mem {
		rss = append(rss, x.rssMiB)
	}
	var sim congest.Metrics
	for _, x := range r.plain[:r.set] {
		sim = sim.Add(x.cost)
	}
	return map[string]metric{
		"setup_s":      {median(setup), "s"},
		"run_s":        {median(runS), "s"},
		"sim_rounds":   {float64(sim.Rounds), "count"},
		"sim_messages": {float64(sim.Messages), "count"},
		"peak_rss_mb":  {median(rss), "MiB"},
	}
}

// layerMetrics reports the traced run's per-layer metrics. Counts are summed
// over the fixed instance set, times are medians per instance or per call.
func layerMetrics(r *run) (map[string]metric, error) {
	tr := r.tr
	first := r.traced[:r.set]
	var (
		stepped, sparse, nRounds, rounds, claims, phases int64
		costs                                            = map[string]congest.Metrics{}
		mem, budget, plainRun, tracedRun                 []float64
	)
	for _, x := range first {
		stepped += x.stepped
		sparse += x.sparse
		nRounds += int64(x.n) * x.cost.Rounds
		rounds += x.cost.Rounds
		claims += x.ledger.claims
		phases += x.ob.mstPhases
		for layer, c := range x.ledger.cost {
			costs[layer] = costs[layer].Add(c)
		}
	}
	for i, x := range r.traced {
		mem = append(mem, float64(x.memBytes)/(1<<20))
		budget = append(budget, float64(x.ob.budget))
		plainRun = append(plainRun, r.plain[i].runS)
		tracedRun = append(tracedRun, x.runS)
	}
	gen, _ := tr.named("graph.gen")
	network, _ := tr.named("congest.new_network")
	engine, engineMiB := tr.named("core.new_engine")
	elect, _ := tr.named("part.elect_leaders")
	build, buildMiB := tr.named("core.build_infra")
	solve, solveMiB := tr.named("core.solve_with_infra")
	mstRun, mstMiB := tr.named("mst.run")
	ms := map[string]metric{
		"graph.gen_s":               {median(gen), "s"},
		"congest.new_network_s":     {median(network), "s"},
		"congest.mem_mb":            {median(mem), "MiB"},
		"congest.stepped":           {float64(stepped), "count"},
		"congest.awake_frac":        {ratio(stepped, nRounds), "frac"},
		"congest.sparse_round_frac": {ratio(sparse, rounds), "frac"},
		"tree.setup_s":              {median(engine), "s"},
		"tree.setup_alloc_mb":       {median(engineMiB), "MiB"},
		"part.elect_s":              {median(elect), "s"},
		"core.build_s":              {median(build), "s"},
		"core.build_alloc_mb":       {median(buildMiB), "MiB"},
		"core.build_attempts":       {float64(claims), "count"},
		"core.budget":               {median(budget), "rounds"},
		"core.solve_s":              {median(solve), "s"},
		"core.solve_alloc_mb":       {median(solveMiB), "MiB"},
		"mst.run_s":                 {median(mstRun), "s"},
		"mst.alloc_mb":              {median(mstMiB), "MiB"},
		"mst.phases":                {float64(phases), "count"},
		"trace.overhead_s":          {median(tracedRun) - median(plainRun), "s"},
	}
	if v, pct, ok := tail(solve); ok {
		ms["core.solve_s_tail"] = metric{v, "s"}
		fmt.Printf("core.solve_s_tail is p%.1f over %d calls\n", pct, len(solve))
	} else {
		ms["core.solve_s_tail"] = metric{0, "s"}
		fmt.Printf("core.solve_s_tail: %d calls, 21 needed\n", len(solve))
	}
	for _, layer := range ledgerLayers {
		ms[layer+".rounds"] = metric{float64(costs[layer].Rounds), "count"}
		ms[layer+".messages"] = metric{float64(costs[layer].Messages), "count"}
	}
	shares, err := cpuShares(tr.profiles)
	if err != nil {
		return nil, err
	}
	for pkg, share := range shares {
		ms[pkg+".cpu_share"] = metric{share, "frac"}
	}
	return ms, nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
