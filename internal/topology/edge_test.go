package topology

import (
	"math"
	"strings"
	"testing"
)

// Degenerate shapes — 1-node dimensions, single-active-dimension tori,
// and the 1x1x1 point topology — must build cleanly and keep every
// structural invariant (groups partition, rings cycle, no phantom links).

func TestSingleNodeTorus(t *testing.T) {
	tp := mustTorus(t, 1, 1, 1)
	if tp.NumNPUs() != 1 {
		t.Fatalf("1x1x1 has %d NPUs", tp.NumNPUs())
	}
	if n := len(tp.Links()); n != 0 {
		t.Fatalf("1x1x1 has %d links, want 0", n)
	}
	for _, d := range tp.Dims() {
		if d.Size != 1 {
			t.Fatalf("1x1x1 dim %v has size %d", d.Dim, d.Size)
		}
		if g := tp.Group(d.Dim, 0); len(g) != 1 || g[0] != 0 {
			t.Fatalf("1x1x1 group on %v = %v, want [0]", d.Dim, g)
		}
	}
}

func TestSingleActiveDimensionTorus(t *testing.T) {
	// 1x8x1: only the horizontal dimension carries traffic.
	tp := mustTorus(t, 1, 8, 1)
	if tp.NumNPUs() != 8 {
		t.Fatalf("1x8x1 has %d NPUs", tp.NumNPUs())
	}
	active := 0
	for _, d := range tp.Dims() {
		if d.Size == 1 {
			if g := tp.Group(d.Dim, 3); len(g) != 1 || g[0] != 3 {
				t.Fatalf("inactive dim %v group = %v, want [3]", d.Dim, g)
			}
			continue
		}
		active++
		if d.Size != 8 {
			t.Fatalf("active dim %v size %d, want 8", d.Dim, d.Size)
		}
		// Each ring must visit all 8 nodes and return home.
		for ch := 0; ch < d.Channels; ch++ {
			r := tp.RingOf(d.Dim, 0, ch)
			cur, seen := Node(0), map[Node]bool{}
			for i := 0; i < 8; i++ {
				if seen[cur] {
					t.Fatalf("ring ch%d revisits %d early", ch, cur)
				}
				seen[cur] = true
				cur = r.Next(cur)
			}
			if cur != 0 {
				t.Fatalf("ring ch%d does not close: ended at %d", ch, cur)
			}
		}
	}
	if active != 1 {
		t.Fatalf("1x8x1 has %d active dims, want 1", active)
	}
	// Every link belongs to the one active dimension.
	for _, l := range tp.Links() {
		if l.Src == l.Dst {
			t.Fatalf("self-link %v", l)
		}
	}
}

func TestTorusNDWithUnitAxes(t *testing.T) {
	nd := mustND(t, []int{1, 4, 1})
	if nd.NumNPUs() != 4 {
		t.Fatalf("1x4x1 ND torus has %d NPUs", nd.NumNPUs())
	}
	seen := map[Node]bool{}
	for i := 0; i < nd.NumNPUs(); i++ {
		for _, d := range nd.Dims() {
			g := nd.Group(d.Dim, Node(i))
			if d.Size == 1 && len(g) != 1 {
				t.Fatalf("unit axis %v group = %v", d.Dim, g)
			}
			for _, n := range g {
				seen[n] = true
			}
		}
	}
	if len(seen) != nd.NumNPUs() {
		t.Fatalf("groups cover %d of %d nodes", len(seen), nd.NumNPUs())
	}

	all1 := mustND(t, []int{1, 1})
	if all1.NumNPUs() != 1 || len(all1.Links()) != 0 {
		t.Fatalf("1x1 ND torus: %d NPUs, %d links", all1.NumNPUs(), len(all1.Links()))
	}
}

func TestConstructorRejectsDegenerateShapes(t *testing.T) {
	if _, err := NewTorus(0, 4, 4, DefaultTorusConfig()); err == nil {
		t.Fatal("NewTorus accepted a zero dimension")
	}
	if _, err := NewTorus(2, -1, 2, DefaultTorusConfig()); err == nil {
		t.Fatal("NewTorus accepted a negative dimension")
	}
	if _, err := NewTorus(2, 2, 2, TorusConfig{LocalRings: 0, HorizontalRings: 2, VerticalRings: 2}); err == nil {
		t.Fatal("NewTorus accepted zero rings")
	}
	if _, err := NewTorusND([]int{8}, nil); err == nil {
		t.Fatal("NewTorusND accepted a single axis")
	}
	if _, err := NewTorusND([]int{2, 0, 2}, nil); err == nil {
		t.Fatal("NewTorusND accepted a zero axis")
	}
	if _, err := NewTorusND([]int{2, 2}, []int{0}); err == nil {
		t.Fatal("NewTorusND accepted zero rings")
	}
	if _, err := NewA2A(0, 4, DefaultA2AConfig()); err == nil {
		t.Fatal("NewA2A accepted a zero dimension")
	}
	if _, err := NewA2A(2, 4, A2AConfig{LocalRings: 2, GlobalSwitches: 0}); err == nil {
		t.Fatal("NewA2A accepted zero switches")
	}
}

func TestSingleNPUPerPackageA2A(t *testing.T) {
	// a2a:1x4 — no local rings in use; all traffic crosses the switches.
	a, err := NewA2A(1, 4, DefaultA2AConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.NumNPUs() != 4 {
		t.Fatalf("1x4 alltoall has %d NPUs", a.NumNPUs())
	}
	for _, l := range a.Links() {
		if l.Class == IntraPackage {
			t.Fatalf("1-NPU packages must have no intra-package links, got %v", l)
		}
	}
}

// Node counts that overflow int must be rejected by name before anything
// is allocated: an overflowed product used to build a zero-NPU fabric or
// size allocations that exhaust memory.
func TestConstructorsRejectNodeCountOverflow(t *testing.T) {
	const big = 1 << 32
	ring := func(size, lanes int) DimSpec {
		return DimSpec{Kind: KindRing, Size: size, Lanes: lanes, Class: InterPackage}
	}
	pod := mustTorus(t, 1, 2, 2)
	cases := []struct {
		name  string
		build func() (Topology, error)
	}{
		{"ring4294967296+ring4294967296 hier", func() (Topology, error) {
			return NewHierarchical([]DimSpec{ring(big, 1), ring(big, 1)})
		}},
		{"sw2+sw4294967296 hier", func() (Topology, error) {
			return NewHierarchical([]DimSpec{
				{Kind: KindSwitch, Size: 2, Lanes: math.MaxInt / 2, Class: IntraPackage},
				{Kind: KindSwitch, Size: big, Lanes: 1, Class: InterPackage},
			})
		}},
		{"ring2+ring2 hier", func() (Topology, error) {
			return NewHierarchical([]DimSpec{ring(2, 1), ring(2, math.MaxInt/2+1)})
		}},
		{"3037000500x3037000500x2 torus", func() (Topology, error) {
			return NewTorus(3037000500, 3037000500, 2, DefaultTorusConfig())
		}},
		{"4294967296x4294967296 torus", func() (Topology, error) {
			return NewTorusND([]int{big, big}, nil)
		}},
		{"4294967296x4294967296 alltoall", func() (Topology, error) {
			return NewA2A(big, big, DefaultA2AConfig())
		}},
		{"1x4 alltoall", func() (Topology, error) {
			return NewA2A(1, 4, A2AConfig{LocalRings: 1, GlobalSwitches: math.MaxInt - 3})
		}},
		{"1x4294967296 switched", func() (Topology, error) {
			return NewSwitched(1, big, SwitchedConfig{LocalSwitches: big, GlobalSwitches: 1})
		}},
		{"pods of 1x2x2 torus", func() (Topology, error) {
			return NewScaleOut(pod, math.MaxInt/2, 1)
		}},
	}
	for _, tc := range cases {
		tp, err := tc.build()
		if err == nil {
			t.Errorf("%s: built with %d NPUs, want an overflow error", tc.name, tp.NumNPUs())
			continue
		}
		if !strings.Contains(err.Error(), tc.name) {
			t.Errorf("%s: error %q does not name the topology", tc.name, err)
		}
	}
}
