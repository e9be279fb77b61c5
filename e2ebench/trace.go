package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"shortcutpa/internal/congest"
)

// span is one timed call the benchmark made into the program.
type span struct {
	Instance   int    `json:"instance"` // execution the span belongs to
	ID         int    `json:"id"`
	Parent     int    `json:"parent"` // -1 for an execution's root span
	Name       string `json:"name"`
	StartNs    int64  `json:"start_ns"` // since the tracer was created
	EndNs      int64  `json:"end_ns"`
	SelfNs     int64  `json:"self_ns"` // duration not covered by child spans
	AllocBytes uint64 `json:"alloc_bytes"`
	Rounds     int64  `json:"rounds"` // phase-log growth during the span
	Messages   int64  `json:"messages"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing and adds no work, which is how untraced executions run.
type tracer struct {
	origin   time.Time
	dir      string
	spans    []span
	open     []int // indexes of the spans being recorded, innermost last
	instance int
	net      *congest.Network // phase-log source once the network exists
	profiles []string
	profile  *os.File // open while a CPU profile is running
}

func newTracer(dir string) *tracer {
	return &tracer{origin: time.Now(), dir: dir}
}

// begin starts execution id's root span.
func (t *tracer) begin(id int) {
	if t == nil {
		return
	}
	t.instance, t.net = id, nil
	t.push("instance")
}

func (t *tracer) end() {
	if t != nil {
		t.pop()
	}
}

// do runs fn inside a span named name.
func (t *tracer) do(name string, fn func() error) error {
	if t == nil {
		return fn()
	}
	t.push(name)
	defer t.pop()
	return fn()
}

func (t *tracer) push(name string) {
	parent := -1
	if k := len(t.open); k > 0 {
		parent = t.spans[t.open[k-1]].ID
	}
	s := span{Instance: t.instance, ID: len(t.spans), Parent: parent, Name: name}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.AllocBytes = ms.TotalAlloc
	if t.net != nil {
		c := t.net.Total()
		s.Rounds, s.Messages = c.Rounds, c.Messages
	}
	s.StartNs = time.Since(t.origin).Nanoseconds()
	t.open = append(t.open, len(t.spans))
	t.spans = append(t.spans, s)
}

func (t *tracer) pop() {
	end := time.Since(t.origin).Nanoseconds()
	k := len(t.open) - 1
	s := &t.spans[t.open[k]]
	t.open = t.open[:k]
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.EndNs = end
	s.AllocBytes = ms.TotalAlloc - s.AllocBytes
	if t.net != nil {
		c := t.net.Total()
		s.Rounds, s.Messages = c.Rounds-s.Rounds, c.Messages-s.Messages
	}
	// Children finished before s, so SelfNs already holds minus their sum.
	s.SelfNs += end - s.StartNs
	if k > 0 {
		t.spans[t.open[k-1]].SelfNs -= end - s.StartNs
	}
}

// attach makes net the phase-log source for the spans that follow.
func (t *tracer) attach(net *congest.Network) {
	if t != nil {
		t.net = net
	}
}

// startProfile starts a CPU profile covering one traced execution.
func (t *tracer) startProfile() error {
	if t == nil {
		return nil
	}
	path := filepath.Join(t.dir, fmt.Sprintf("cpu-%d.pprof", len(t.profiles)))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	t.profiles = append(t.profiles, path)
	t.profile = f
	return nil
}

func (t *tracer) stopProfile() error {
	if t == nil {
		return nil
	}
	pprof.StopCPUProfile()
	return t.profile.Close()
}

// named returns, for every span named name, its duration in seconds and
// its allocation in MiB.
func (t *tracer) named(name string) (secs, mib []float64) {
	for _, s := range t.spans {
		if s.Name == name {
			secs = append(secs, float64(s.EndNs-s.StartNs)/1e9)
			mib = append(mib, float64(s.AllocBytes)/(1<<20))
		}
	}
	return secs, mib
}

// write saves the spans as JSON.
func (t *tracer) write(path string) error {
	data, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
