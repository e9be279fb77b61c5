package equivalence

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"shortcutpa/internal/congest"
)

// goldenPhaseLogs pins, for every protocol fixture at master seed 42 on the
// sequential engine, a digest of the complete per-phase cost log
// (net.Phases()): FNV-64 over each phase's name, Rounds and Messages, in
// order. TestGoldenCostAccounting pins only the totals, so a rescheduled
// execution whose phases trade rounds or messages with each other would
// pass there; here it fails. Like goldenCosts, a change that moves a digest
// must say why in the same change.
var goldenPhaseLogs = []struct {
	name   string
	phases int
	digest uint64
}{
	{name: "corefast-pa", phases: 11, digest: 0x6d9649d87479909d},
	{name: "heavy-path-pa", phases: 17, digest: 0xe16b3f3b8c996f7b},
	{name: "leaderless-pa", phases: 160, digest: 0x62eefe0a44df4194},
	{name: "mst", phases: 244, digest: 0xb363ca86757e09f3},
	{name: "sssp", phases: 170, digest: 0xf25a6701ca65d8a1},
	{name: "mincut", phases: 151, digest: 0xc79b89d3d22dd461},
	{name: "verify", phases: 141, digest: 0x9c4de521510a66f6},
	{name: "domset", phases: 5, digest: 0xde1698bb3d812bb8},
	{name: "corefast-pa-powerlaw", phases: 14, digest: 0x6d4e35450f1bb499},
	{name: "mst-powerlaw", phases: 190, digest: 0x25163430bd3cff89},
	{name: "domset-powerlaw", phases: 5, digest: 0x283b2cd4fa40c848},
}

// phaseLogDigest hashes a phase log in order: each phase's name (length
// prefixed), then its Rounds and Messages as little-endian int64s.
func phaseLogDigest(phases []congest.Phase) uint64 {
	h := fnv.New64()
	var buf [8]byte
	word := func(x int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		h.Write(buf[:])
	}
	for _, ph := range phases {
		word(int64(len(ph.Name)))
		h.Write([]byte(ph.Name))
		word(ph.Cost.Rounds)
		word(ph.Cost.Messages)
	}
	return h.Sum64()
}

// TestGoldenPhaseLog is the phase-by-phase companion of
// TestGoldenCostAccounting: same fixtures, same seed, but the whole
// ordered phase log must match, not just its sum.
func TestGoldenPhaseLog(t *testing.T) {
	byName := make(map[string]protocol)
	for _, p := range protocols() {
		byName[p.name] = p
	}
	if len(byName) != len(goldenPhaseLogs) {
		t.Fatalf("harness has %d protocols, phase-log table has %d — keep them in sync",
			len(byName), len(goldenPhaseLogs))
	}
	for _, want := range goldenPhaseLogs {
		want := want
		t.Run(want.name, func(t *testing.T) {
			p, ok := byName[want.name]
			if !ok {
				t.Fatalf("no protocol %q in the harness", want.name)
			}
			ex, err := execute(p, 42, 1)
			if err != nil {
				t.Fatal(err)
			}
			if got := phaseLogDigest(ex.Phases); len(ex.Phases) != want.phases || got != want.digest {
				t.Errorf("seed 42 phase log = %d phases, digest %#x; golden %d phases, %#x",
					len(ex.Phases), got, want.phases, want.digest)
			}
		})
	}
}
