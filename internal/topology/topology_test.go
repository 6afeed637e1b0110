package topology

import (
	"testing"
	"testing/quick"
)

func mustTorus(t *testing.T, m, n, k int) *Hierarchical {
	t.Helper()
	tp, err := NewTorus(m, n, k, DefaultTorusConfig())
	if err != nil {
		t.Fatalf("NewTorus(%d,%d,%d): %v", m, n, k, err)
	}
	return tp
}

func TestTorusSizes(t *testing.T) {
	cases := []struct{ m, n, k, npus int }{
		{1, 8, 1, 8},
		{2, 2, 3, 12},
		{4, 4, 4, 64},
		{2, 8, 8, 128},
	}
	for _, c := range cases {
		tp := mustTorus(t, c.m, c.n, c.k)
		if tp.NumNPUs() != c.npus {
			t.Errorf("%s: NumNPUs = %d, want %d", tp.Name(), tp.NumNPUs(), c.npus)
		}
		if tp.NumNodes() != c.npus {
			t.Errorf("%s: NumNodes = %d, want %d (torus has no switches)", tp.Name(), tp.NumNodes(), c.npus)
		}
	}
}

func TestTorusDims(t *testing.T) {
	tp := mustTorus(t, 2, 4, 3)
	dims := tp.Dims()
	if len(dims) != 3 {
		t.Fatalf("Dims len = %d, want 3", len(dims))
	}
	want := []DimInfo{
		{Dim: DimLocal, Size: 2, Channels: 2},
		{Dim: DimVertical, Size: 3, Channels: 4},
		{Dim: DimHorizontal, Size: 4, Channels: 4},
	}
	for i, d := range dims {
		if d != want[i] {
			t.Errorf("Dims[%d] = %+v, want %+v", i, d, want[i])
		}
	}
}

func TestTorusGroups(t *testing.T) {
	// 2x3x2: package p = row*3+col, npu = p*2+l.
	tp := mustTorus(t, 2, 3, 2)
	// Local group of node 0 (package 0): {0, 1}.
	g := tp.Group(DimLocal, 0)
	if len(g) != 2 || g[0] != 0 || g[1] != 1 {
		t.Errorf("local group of 0 = %v, want [0 1]", g)
	}
	// Vertical group of node 0 (l=0, col=0): rows 0,1 -> packages 0, 3 -> npus 0, 6.
	g = tp.Group(DimVertical, 0)
	if len(g) != 2 || g[0] != 0 || g[1] != 6 {
		t.Errorf("vertical group of 0 = %v, want [0 6]", g)
	}
	// Horizontal group of node 0 (l=0, row=0): cols 0,1,2 -> npus 0, 2, 4.
	g = tp.Group(DimHorizontal, 0)
	if len(g) != 3 || g[0] != 0 || g[1] != 2 || g[2] != 4 {
		t.Errorf("horizontal group of 0 = %v, want [0 2 4]", g)
	}
}

func TestTorusGroupsPartitionNodes(t *testing.T) {
	tp := mustTorus(t, 4, 4, 4)
	for _, d := range tp.Dims() {
		seen := make(map[Node]int)
		for n := 0; n < tp.NumNPUs(); n++ {
			for _, m := range tp.Group(d.Dim, Node(n)) {
				if m == Node(n) {
					seen[Node(n)]++
				}
			}
		}
		for n := 0; n < tp.NumNPUs(); n++ {
			if seen[Node(n)] != 1 {
				t.Fatalf("dim %v: node %d appears %d times in its own group", d.Dim, n, seen[Node(n)])
			}
		}
		// Group membership must be symmetric and consistent.
		for n := 0; n < tp.NumNPUs(); n++ {
			g := tp.Group(d.Dim, Node(n))
			if len(g) != d.Size {
				t.Fatalf("dim %v: group size %d, want %d", d.Dim, len(g), d.Size)
			}
			for _, m := range g {
				g2 := tp.Group(d.Dim, m)
				if len(g2) != len(g) || g2[0] != g[0] {
					t.Fatalf("dim %v: group of %d and %d disagree", d.Dim, n, m)
				}
			}
		}
	}
}

func TestTorusRingIsCycle(t *testing.T) {
	tp := mustTorus(t, 4, 4, 4)
	for _, d := range tp.Dims() {
		for c := 0; c < d.Channels; c++ {
			r := tp.RingOf(d.Dim, 0, c)
			if r.Size() != d.Size {
				t.Fatalf("dim %v channel %d: ring size %d, want %d", d.Dim, c, r.Size(), d.Size)
			}
			n := r.Nodes[0]
			for i := 0; i < r.Size(); i++ {
				n = r.Next(n)
			}
			if n != r.Nodes[0] {
				t.Fatalf("dim %v channel %d: ring does not cycle back", d.Dim, c)
			}
		}
	}
}

func TestTorusRingDirectionsAlternate(t *testing.T) {
	tp := mustTorus(t, 4, 2, 2)
	r0 := tp.RingOf(DimLocal, 0, 0)
	r1 := tp.RingOf(DimLocal, 0, 1)
	if r0.Next(0) == r1.Next(0) {
		t.Errorf("channels 0 and 1 have the same direction: next(0) = %d both", r0.Next(0))
	}
	// Vertical channels 0/1 are the two halves of bidirectional ring 0.
	v0 := tp.RingOf(DimVertical, 0, 0)
	v1 := tp.RingOf(DimVertical, 0, 1)
	if v0.Next(0) != v1.Nodes[(v1.IndexOf(0)+v1.Size()-1)%v1.Size()] {
		t.Errorf("vertical channels 0 and 1 are not opposite directions")
	}
}

func TestTorusLinksAreDedicated(t *testing.T) {
	tp := mustTorus(t, 4, 4, 4)
	used := make(map[LinkID]string)
	for _, d := range tp.Dims() {
		for n := 0; n < tp.NumNPUs(); n++ {
			for c := 0; c < d.Channels; c++ {
				r := tp.RingOf(d.Dim, Node(n), c)
				if r.IndexOf(Node(n)) != 0 {
					continue // visit each ring once, from its first node
				}
				for i, id := range r.Links {
					key := d.Dim.String() + "/" + string(rune('0'+c))
					if prev, ok := used[id]; ok && prev != key {
						t.Fatalf("link %d shared between %s and %s", id, prev, key)
					}
					used[id] = key
					spec := tp.Links()[id]
					if spec.Src != r.Nodes[i] || spec.Dst != r.Nodes[(i+1)%r.Size()] {
						t.Fatalf("link %d endpoints %d->%d, ring expects %d->%d",
							id, spec.Src, spec.Dst, r.Nodes[i], r.Nodes[(i+1)%r.Size()])
					}
				}
			}
		}
	}
}

func TestTorusLinkCount(t *testing.T) {
	// 4x4x4 with 2 local rings, 2 bidirectional rings per inter dim:
	// local: 16 packages * 2 rings * 4 links = 128 intra links.
	// vertical: 4*4 groups * 4 channels * 4 links = 256 inter links.
	// horizontal: same = 256.
	tp := mustTorus(t, 4, 4, 4)
	var intra, inter int
	for _, l := range tp.Links() {
		if l.Class == IntraPackage {
			intra++
		} else {
			inter++
		}
	}
	if intra != 128 {
		t.Errorf("intra-package links = %d, want 128", intra)
	}
	if inter != 512 {
		t.Errorf("inter-package links = %d, want 512", inter)
	}
}

func TestTorusSizeOneDimsHaveNoLinks(t *testing.T) {
	tp := mustTorus(t, 1, 8, 1)
	for _, l := range tp.Links() {
		if l.Class == IntraPackage {
			t.Fatalf("1x8x1 torus should have no intra-package links, got %+v", l)
		}
	}
	r := tp.RingOf(DimLocal, 3, 0)
	if r.Size() != 1 || len(r.Links) != 0 {
		t.Errorf("size-1 local ring: size=%d links=%d, want 1 and 0", r.Size(), len(r.Links))
	}
	// 1D ring of 8 with 2 bidirectional rings -> 4 channels * 8 links.
	if got := len(tp.Links()); got != 32 {
		t.Errorf("1x8x1 links = %d, want 32", got)
	}
}

func TestTorusPathLinks(t *testing.T) {
	tp := mustTorus(t, 2, 3, 2)
	r := tp.RingOf(DimHorizontal, 0, 0)
	next := r.Next(0)
	path := tp.PathLinks(DimHorizontal, 0, 0, next)
	if len(path) != 1 {
		t.Fatalf("path length %d, want 1", len(path))
	}
	spec := tp.Links()[path[0]]
	if spec.Src != 0 || spec.Dst != next || spec.Class != InterPackage {
		t.Errorf("path link %+v, want 0->%d inter-package", spec, next)
	}
}

func TestA2ABasics(t *testing.T) {
	a, err := NewA2A(1, 8, A2AConfig{LocalRings: 2, GlobalSwitches: 7})
	if err != nil {
		t.Fatal(err)
	}
	if a.NumNPUs() != 8 {
		t.Errorf("NumNPUs = %d, want 8", a.NumNPUs())
	}
	if a.NumNodes() != 15 {
		t.Errorf("NumNodes = %d, want 15 (8 NPUs + 7 switches)", a.NumNodes())
	}
	dims := a.Dims()
	if len(dims) != 2 || dims[0].Dim != DimLocal || dims[1].Dim != DimPackage {
		t.Fatalf("Dims = %+v", dims)
	}
	if !dims[1].Direct || dims[1].Size != 8 || dims[1].Channels != 7 {
		t.Errorf("package dim = %+v, want direct, size 8, channels 7", dims[1])
	}
	// Every NPU has one up and one down link per switch: 8*7*2 = 112.
	if got := len(a.Links()); got != 112 {
		t.Errorf("links = %d, want 112", got)
	}
}

func TestA2AGroups(t *testing.T) {
	a, err := NewA2A(2, 3, DefaultA2AConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Node 3 = package 1, local 1. Package group: local index 1 in each
	// package: nodes 1, 3, 5.
	g := a.Group(DimPackage, 3)
	if len(g) != 3 || g[0] != 1 || g[1] != 3 || g[2] != 5 {
		t.Errorf("package group of 3 = %v, want [1 3 5]", g)
	}
	g = a.Group(DimLocal, 3)
	if len(g) != 2 || g[0] != 2 || g[1] != 3 {
		t.Errorf("local group of 3 = %v, want [2 3]", g)
	}
}

func TestA2APathThroughSwitch(t *testing.T) {
	a, err := NewA2A(2, 4, DefaultA2AConfig())
	if err != nil {
		t.Fatal(err)
	}
	// 0 (pkg 0, l 0) to 6 (pkg 3, l 0).
	path := a.PathLinks(DimPackage, 0, 0, 6)
	if len(path) != 2 {
		t.Fatalf("path length %d, want 2 (up + down)", len(path))
	}
	up, down := a.Links()[path[0]], a.Links()[path[1]]
	if up.Src != 0 || int(up.Dst) < a.NumNPUs() {
		t.Errorf("up link %+v does not go from 0 to a switch", up)
	}
	if up.Dst != down.Src || down.Dst != 6 {
		t.Errorf("down link %+v does not continue from switch to 6", down)
	}
	if up.Class != InterPackage || down.Class != InterPackage {
		t.Errorf("switch links must be inter-package, got %v/%v", up.Class, down.Class)
	}
}

func TestA2APackagePathPanicsAcrossLocalIndices(t *testing.T) {
	a, _ := NewA2A(2, 4, DefaultA2AConfig())
	defer func() {
		if recover() == nil {
			t.Error("expected panic for cross-local-index package path")
		}
	}()
	a.PathLinks(DimPackage, 0, 0, 3) // node 3 has local index 1
}

// matchRound must be symmetric and, for a fixed round, a matching: no node
// appears in two pairs of the same round.
func TestMatchRoundIsMatching(t *testing.T) {
	for _, n := range []int{2, 3, 4, 7, 8, 16} {
		rounds := n - 1
		if n%2 == 1 {
			rounds = n
		}
		for r := 0; r < rounds; r++ {
			partner := make(map[int]int)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if i == j || matchRound(i, j, n) != r {
						continue
					}
					if p, ok := partner[i]; ok && p != j {
						t.Fatalf("n=%d round %d: node %d paired with both %d and %d", n, r, i, p, j)
					}
					partner[i] = j
				}
			}
		}
		// Every pair must get some round in range.
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				r := matchRound(i, j, n)
				if r < 0 || r >= rounds {
					t.Fatalf("n=%d: round(%d,%d) = %d out of [0,%d)", n, i, j, r, rounds)
				}
				if r != matchRound(j, i, n) {
					t.Fatalf("n=%d: matchRound not symmetric for (%d,%d)", n, i, j)
				}
			}
		}
	}
}

func TestPropertyMatchRoundSymmetric(t *testing.T) {
	f := func(a, b uint8, nn uint8) bool {
		n := int(nn%30) + 2
		i, j := int(a)%n, int(b)%n
		if i == j {
			return true
		}
		return matchRound(i, j, n) == matchRound(j, i, n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestA2AFullExchangeUsesEachLinkOnce(t *testing.T) {
	// Paper Fig. 9 setup: 1x8 alltoall with 7 switches. A full direct
	// exchange (every pair sends) must use every up link at most once --
	// "one link per peer NAM".
	a, err := NewA2A(1, 8, A2AConfig{LocalRings: 1, GlobalSwitches: 7})
	if err != nil {
		t.Fatal(err)
	}
	useUp := make(map[LinkID]int)
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			if i == j {
				continue
			}
			path := a.PathLinks(DimPackage, 0, Node(i), Node(j))
			useUp[path[0]]++
		}
	}
	for id, c := range useUp {
		if c != 1 {
			t.Errorf("up link %d used %d times in a full exchange, want 1", id, c)
		}
	}
	if len(useUp) != 56 {
		t.Errorf("distinct up links used = %d, want 56", len(useUp))
	}
}

func TestRingLinkFrom(t *testing.T) {
	tp := mustTorus(t, 4, 1, 1)
	r := tp.RingOf(DimLocal, 0, 0)
	for _, n := range r.Nodes {
		id := r.LinkFrom(n)
		spec := tp.Links()[id]
		if spec.Src != n || spec.Dst != r.Next(n) {
			t.Errorf("LinkFrom(%d) = link %d (%d->%d), want %d->%d",
				n, id, spec.Src, spec.Dst, n, r.Next(n))
		}
	}
}

func TestNewTorusErrors(t *testing.T) {
	if _, err := NewTorus(0, 4, 4, DefaultTorusConfig()); err == nil {
		t.Error("expected error for zero local size")
	}
	if _, err := NewTorus(4, 4, 4, TorusConfig{}); err == nil {
		t.Error("expected error for zero ring counts")
	}
	if _, err := NewA2A(2, 0, DefaultA2AConfig()); err == nil {
		t.Error("expected error for zero packages")
	}
	if _, err := NewA2A(2, 4, A2AConfig{LocalRings: 1}); err == nil {
		t.Error("expected error for zero switches")
	}
}
