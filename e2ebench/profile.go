package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strings"
	"time"
)

// cpuLayers are the buckets of cpu_share: the program's packages, the
// benchmark's own frames, and runtime for samples with neither (GC workers,
// the scheduler).
var cpuLayers = []string{
	"graph", "congest", "tree", "part", "subpart", "shortcut", "core", "mst",
	"harness", "runtime",
}

// cpuShares reads the CPU profiles with the toolchain's pprof and charges
// each sample to the package of its innermost program frame, so runtime work
// (maps, malloc) counts toward the layer that asked for it.
func cpuShares(files []string) (map[string]float64, error) {
	cmd := exec.Command("go", append([]string{"tool", "pprof", "-traces"}, files...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, stderr.String())
	}
	return attribute(out)
}

// attribute splits pprof's -traces listing into samples (a value line, then
// frames innermost first) and sums their values by layer.
func attribute(listing []byte) (map[string]float64, error) {
	ns := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		ns[l] = 0
	}
	var (
		total  float64
		value  float64
		layer  string
		inside bool // between a separator and the sample's value line
	)
	flush := func() {
		if layer != "" {
			ns[layer] += value
			total += value
		}
		layer, value = "", 0
	}
	sc := bufio.NewScanner(bytes.NewReader(listing))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inside = true
			continue
		}
		if !inside || strings.TrimSpace(line) == "" {
			continue
		}
		frame := strings.TrimSpace(line)
		if layer == "" && value == 0 {
			v, rest, _ := strings.Cut(frame, " ")
			d, err := time.ParseDuration(v)
			if err != nil {
				return nil, fmt.Errorf("pprof traces: sample value %q: %w", v, err)
			}
			value, frame, layer = float64(d), strings.TrimSpace(rest), "runtime"
		}
		switch {
		case layer != "runtime" && layer != "harness":
			// An inner program frame already claimed the sample.
		case strings.HasPrefix(frame, "shortcutpa/internal/"):
			pkg, _, _ := strings.Cut(strings.TrimPrefix(frame, "shortcutpa/internal/"), ".")
			if _, ok := ns[pkg]; !ok {
				return nil, fmt.Errorf("pprof traces: sample in unmeasured package %q", pkg)
			}
			layer = pkg
		case strings.HasPrefix(frame, "main."):
			layer = "harness"
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	flush()
	if total == 0 {
		return nil, fmt.Errorf("pprof traces: no samples")
	}
	for l := range ns {
		ns[l] /= total
	}
	return ns, nil
}
