package shortcut

import (
	"math/rand"
	"slices"
	"testing"

	"shortcutpa/internal/congest"
	"shortcutpa/internal/graph"
	"shortcutpa/internal/tree"
)

const testBudget = 100000

// meta returns the block metadata v's table holds for part i, if any.
func (s *Shortcut) meta(v int, i int64) (BlockMeta, bool) {
	if e := s.entry(v, i); e != nil {
		return e.Meta, e.HasMeta
	}
	return BlockMeta{}, false
}

func buildTree(t *testing.T, g *graph.Graph, seed int64) (*congest.Network, *tree.BFSTree) {
	t.Helper()
	net := congest.NewNetwork(g, seed)
	leader, err := tree.ElectLeader(net, testBudget)
	if err != nil {
		t.Fatal(err)
	}
	bt, err := tree.BuildBFS(net, leader, testBudget)
	if err != nil {
		t.Fatal(err)
	}
	return net, bt
}

// claimPath claims v's rootward tree path for part i, for hops edges,
// mirroring up-claims and down-ports exactly as the construction protocols
// do, and seals each claim.
func claimPath(net *congest.Network, bt *tree.BFSTree, s *Shortcut, v int, i int64, hops int) {
	g := net.Graph()
	for h := 0; h < hops && bt.ParentPort[v] >= 0; h++ {
		if s.HasUp(v, i) {
			// Merged with an existing claim; the rest of the path is shared.
			return
		}
		s.ClaimUp(v, i)
		u := g.Neighbor(v, bt.ParentPort[v])
		s.AddDownPort(u, i, g.PortTo(u, v))
		s.Seal()
		v = u
	}
}

func TestSetupBlocksSingleChain(t *testing.T) {
	g := graph.Path(10)
	net, bt := buildTree(t, g, 1)
	s := New(bt, g.N())
	// Claim the deepest node's full rootward path for part 7.
	deepest := 0
	for v := 0; v < g.N(); v++ {
		if bt.Depth[v] > bt.Depth[deepest] {
			deepest = v
		}
	}
	claimPath(net, bt, s, deepest, 7, g.N())
	if err := SetupBlocks(net, s, testBudget); err != nil {
		t.Fatal(err)
	}
	if got := s.Congestion(); got != 1 {
		t.Fatalf("congestion = %d, want 1", got)
	}
	if got := s.BlockCounts()[7]; got != 1 {
		t.Fatalf("blocks of part 7 = %d, want 1", got)
	}
	// Every node on the deepest-to-root chain must know the root (the tree
	// root itself, since the claim runs all the way up).
	rootID := net.ID(bt.Root)
	for v := deepest; ; v = bt.ParentNode[v] {
		if !s.OnBlock(v, 7) {
			t.Fatalf("node %d should be on part 7's block", v)
		}
		meta, ok := s.meta(v, 7)
		if !ok {
			t.Fatalf("node %d missing block meta", v)
		}
		if meta.RootID != rootID || meta.RootDepth != 0 {
			t.Fatalf("node %d meta %+v, want root %d depth 0", v, meta, rootID)
		}
		if v == bt.Root {
			break
		}
	}
	if err := s.VerifyAgainstTree(net, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSetupBlocksDisjointBlocksOfOnePart(t *testing.T) {
	// A star of three arms: claim partial paths on two arms that do NOT
	// reach the root's edges jointly — build two separate blocks for the
	// same part.
	g := graph.Star(7) // hub 0, leaves 1..6
	net, bt := buildTree(t, g, 3)
	if bt.Root != 0 {
		t.Skip("hub not elected root under this seed; block shapes differ")
	}
	s := New(bt, g.N())
	claimPath(net, bt, s, 1, 9, 1) // edge 1-0
	claimPath(net, bt, s, 2, 9, 1) // edge 2-0
	// Those two claims share the hub: one block. Another part claims a
	// single disjoint edge.
	claimPath(net, bt, s, 3, 11, 1)
	if err := SetupBlocks(net, s, testBudget); err != nil {
		t.Fatal(err)
	}
	counts := s.BlockCounts()
	if counts[9] != 1 {
		t.Fatalf("part 9 blocks = %d, want 1 (claims share the hub)", counts[9])
	}
	if counts[11] != 1 {
		t.Fatalf("part 11 blocks = %d, want 1", counts[11])
	}
	if got := s.Congestion(); got != 1 {
		t.Fatalf("congestion = %d, want 1", got)
	}
	// Hub is the block root for both parts.
	if !s.IsBlockRoot(0, 9) || !s.IsBlockRoot(0, 11) {
		t.Fatal("hub should be block root for both parts")
	}
}

func TestSetupBlocksMultiPartCongestion(t *testing.T) {
	g := graph.Path(12)
	net, bt := buildTree(t, g, 5)
	s := New(bt, g.N())
	deepest := 0
	for v := 0; v < g.N(); v++ {
		if bt.Depth[v] > bt.Depth[deepest] {
			deepest = v
		}
	}
	// Three parts claim overlapping rootward paths from the deepest node.
	for _, i := range []int64{100, 200, 300} {
		claimPath(net, bt, s, deepest, i, 5)
	}
	if err := SetupBlocks(net, s, testBudget); err != nil {
		t.Fatal(err)
	}
	if got := s.Congestion(); got != 3 {
		t.Fatalf("congestion = %d, want 3", got)
	}
	for _, i := range []int64{100, 200, 300} {
		if got := s.BlockCounts()[i]; got != 1 {
			t.Fatalf("part %d blocks = %d, want 1", i, got)
		}
	}
	if err := s.VerifyAgainstTree(net, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSetupBlocksRandomizedProperty(t *testing.T) {
	// Property: after setup, for every part, all members of one DSU
	// component share the same (root depth, root ID), and the root really
	// is the component's minimum-depth member.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		g := graph.RandomConnected(60, 0.05, rng)
		net, bt := buildTree(t, g, int64(trial+20))
		s := New(bt, g.N())
		for i := int64(1); i <= 6; i++ {
			for k := 0; k < 3; k++ {
				claimPath(net, bt, s, rng.Intn(g.N()), i*1000, 1+rng.Intn(8))
			}
		}
		if err := SetupBlocks(net, s, testBudget); err != nil {
			t.Fatal(err)
		}
		if err := s.VerifyAgainstTree(net, nil); err != nil {
			t.Fatal(err)
		}
		for i := int64(1); i <= 6; i++ {
			pid := i * 1000
			verifyBlockMeta(t, net, bt, s, pid)
		}
		if s.TotalEdges() == 0 {
			t.Fatal("no edges were claimed")
		}
	}
}

// verifyBlockMeta cross-checks distributed Meta against an offline
// component computation.
func verifyBlockMeta(t *testing.T, net *congest.Network, bt *tree.BFSTree, s *Shortcut, pid int64) {
	t.Helper()
	n := net.N()
	// Offline components of (V(H_pid), H_pid).
	comp := make([]int, n)
	for v := range comp {
		comp[v] = -1
	}
	changed := true
	next := 0
	for v := 0; v < n; v++ {
		if s.OnBlock(v, pid) && comp[v] < 0 {
			comp[v] = next
			next++
		}
	}
	for changed {
		changed = false
		for v := 0; v < n; v++ {
			if !s.HasUp(v, pid) {
				continue
			}
			u := bt.ParentNode[v]
			lo := min(comp[v], comp[u])
			if comp[v] != lo || comp[u] != lo {
				comp[v], comp[u] = lo, lo
				changed = true
			}
		}
	}
	// Within a component: same meta; root is the min-depth member.
	type agg struct {
		minDepth int
		rootID   int64
		metas    map[BlockMeta]struct{}
	}
	byComp := make(map[int]*agg)
	for v := 0; v < n; v++ {
		if comp[v] < 0 {
			continue
		}
		a := byComp[comp[v]]
		if a == nil {
			a = &agg{minDepth: 1 << 30, metas: make(map[BlockMeta]struct{})}
			byComp[comp[v]] = a
		}
		if bt.Depth[v] < a.minDepth {
			a.minDepth = bt.Depth[v]
			a.rootID = net.ID(v)
		}
		m, ok := s.meta(v, pid)
		if !ok {
			t.Fatalf("part %d: node %d on block but missing meta", pid, v)
		}
		a.metas[m] = struct{}{}
	}
	if got := s.BlockCounts()[pid]; got != len(byComp) {
		t.Fatalf("part %d: BlockCounts = %d, offline components = %d", pid, got, len(byComp))
	}
	for c, a := range byComp {
		if len(a.metas) != 1 {
			t.Fatalf("part %d component %d has %d distinct metas", pid, c, len(a.metas))
		}
		for m := range a.metas {
			if m.RootDepth != int64(a.minDepth) || m.RootID != a.rootID {
				t.Fatalf("part %d component %d meta %+v, want depth %d id %d",
					pid, c, m, a.minDepth, a.rootID)
			}
		}
	}
}

func TestDropPart(t *testing.T) {
	g := graph.Path(8)
	net, bt := buildTree(t, g, 7)
	s := New(bt, g.N())
	deepest := 0
	for v := 0; v < g.N(); v++ {
		if bt.Depth[v] > bt.Depth[deepest] {
			deepest = v
		}
	}
	claimPath(net, bt, s, deepest, 1, 3)
	claimPath(net, bt, s, deepest, 2, 3)
	s.DropPart(1)
	if s.Congestion() != 1 {
		t.Fatalf("congestion after drop = %d, want 1", s.Congestion())
	}
	if _, ok := s.BlockCounts()[1]; ok {
		t.Fatal("dropped part still has blocks")
	}
	if _, ok := s.BlockCounts()[2]; !ok {
		t.Fatal("surviving part lost its blocks")
	}
}

// TestSealMergesClaims: claims logged in any order and with repeats, over
// two seals, land in one run per node sorted by part, with ascending,
// deduplicated down-ports; metadata survives a later Seal; DropPart removes
// exactly the named parts and keeps the others' down-ports.
func TestSealMergesClaims(t *testing.T) {
	s := New(nil, 3)
	s.AddDownPort(1, 30, 4)
	s.ClaimUp(1, 10)
	s.AddDownPort(1, 30, 2)
	s.AddDownPort(1, 30, 4)
	s.ClaimUp(1, 10)
	if s.HasUp(1, 10) {
		t.Fatal("a claim is visible before Seal")
	}
	s.Seal()
	meta := BlockMeta{RootDepth: 3, RootID: 99}
	e := s.entry(1, 30)
	e.Meta, e.HasMeta = meta, true
	s.AddDownPort(1, 20, 0)
	s.AddDownPort(1, 30, 1)
	s.ClaimUp(2, 30)
	s.Seal()
	check := func(stage string, want []int64) {
		t.Helper()
		if parts, _ := s.Node(1); !slices.Equal(parts, want) {
			t.Fatalf("%s: node 1 holds parts %v, want %v", stage, parts, want)
		}
		if got := s.DownPorts(1, 30); !slices.Equal(got, []int{1, 2, 4}) {
			t.Fatalf("%s: node 1 down-ports for part 30 = %v, want [1 2 4]", stage, got)
		}
		if m, ok := s.meta(1, 30); !ok || m != meta {
			t.Fatalf("%s: node 1 meta for part 30 = %+v, %v", stage, m, ok)
		}
		if parts, ents := s.Node(2); !slices.Equal(parts, []int64{30}) || !ents[0].Up || len(s.DownPorts(2, 30)) != 0 {
			t.Fatalf("%s: node 2 table %v %+v, want part 30 up-only", stage, parts, ents)
		}
		if parts, _ := s.Node(0); len(parts) != 0 {
			t.Fatalf("%s: node 0 holds parts %v", stage, parts)
		}
	}
	check("sealed", []int64{10, 20, 30})
	if !s.HasUp(1, 10) || s.HasUp(1, 30) || !s.IsBlockRoot(1, 20) || s.IsBlockRoot(1, 10) {
		t.Fatal("node 1's up bits are wrong")
	}
	epoch := s.Epoch()
	s.DropPart()
	if s.Epoch() != epoch {
		t.Fatal("an empty DropPart changed the table's epoch")
	}
	s.DropPart(10, 20)
	if s.Epoch() == epoch {
		t.Fatal("DropPart left the table's epoch unchanged")
	}
	check("dropped", []int64{30})
}
