package main

import (
	"fmt"

	"shortcutpa/internal/congest"
)

// layerOf maps every phase name the measured pipelines can log to its ledger
// bucket. A phase missing here fails the execution, so a renamed or new phase
// cannot silently drop out of the per-layer sums.
var layerOf = map[string]string{
	"tree/elect":          "tree",
	"tree/bfs":            "tree",
	"tree/convergecast":   "tree",
	"tree/broadcast":      "tree",
	"part/elect":          "part",
	"part/bfs-join":       "part",
	"part/bfs-verdict":    "part",
	"subpart/wave":        "subpart",
	"subpart/exchange":    "subpart",
	"subpart/point":       "subpart",
	"shortcut/setup":      "shortcut",
	"core/corefast":       "core.corefast",
	"core/verify":         "core.verify",
	"core/solve":          "core.solve",
	"core/adopt":          "core.coarsen",
	"core/group-exchange": "core.coarsen",
	"core/covered-agg":    "core.coarsen",
}

// ledgerLayers lists the buckets in report order.
var ledgerLayers = []string{
	"tree", "part", "subpart", "shortcut",
	"core.corefast", "core.verify", "core.solve", "core.coarsen",
}

// ledger is one execution's phase log rolled up by layer.
type ledger struct {
	cost map[string]congest.Metrics
	// claims counts core/corefast phases: one per construction attempt.
	claims int64
}

// rollup groups net's phase log by layer and checks that the layers add up
// exactly to the network's totals.
func rollup(net *congest.Network) (ledger, error) {
	l := ledger{cost: make(map[string]congest.Metrics, len(ledgerLayers))}
	var sum congest.Metrics
	for _, ph := range net.Phases() {
		layer, ok := layerOf[ph.Name]
		if !ok {
			return l, fmt.Errorf("ledger: phase %q maps to no layer", ph.Name)
		}
		if ph.Name == "core/corefast" {
			l.claims++
		}
		l.cost[layer] = l.cost[layer].Add(ph.Cost)
		sum = sum.Add(ph.Cost)
	}
	if total := net.Total(); sum != total {
		return l, fmt.Errorf("ledger: layers sum to %+v, network total is %+v", sum, total)
	}
	return l, nil
}
