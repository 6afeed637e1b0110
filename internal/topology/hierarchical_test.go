package topology

import (
	"reflect"
	"testing"
)

// NewTorusND must build exactly the all-ring Hierarchical composition it
// stands for — local ring dimension in the package, bidirectional ring
// dimensions across packages, lanes from the ring counts — with the same
// links in the same order, the same dimension metadata, and the same
// groups, rings, and per-hop paths. This is the foundation of the
// byte-identical sim-level equivalence asserted in the collectives
// package: once the link graphs and ring traversals coincide, every
// schedule compiled over them coincides too.
func TestHierarchicalAllRingEqualsTorusND(t *testing.T) {
	cases := []struct {
		sizes []int
		rings []int
	}{
		{[]int{2, 4, 2}, []int{2, 2, 2}},
		{[]int{2, 2, 2, 2}, []int{2, 2, 2, 2}},
		{[]int{4, 3}, []int{3, 1}},
		{[]int{1, 8}, []int{2, 2}},
	}
	for _, tc := range cases {
		nd, err := NewTorusND(tc.sizes, tc.rings)
		if err != nil {
			t.Fatal(err)
		}
		specs := make([]DimSpec, len(tc.sizes))
		for i, s := range tc.sizes {
			class := InterPackage
			if i == 0 {
				class = IntraPackage
			}
			specs[i] = DimSpec{Kind: KindRing, Size: s, Lanes: tc.rings[i], Class: class}
		}
		h, err := NewHierarchical(specs)
		if err != nil {
			t.Fatal(err)
		}

		if h.NumNPUs() != nd.NumNPUs() || h.NumNodes() != nd.NumNodes() {
			t.Fatalf("sizes %v: hier has %d NPUs/%d nodes, torus %d/%d",
				tc.sizes, h.NumNPUs(), h.NumNodes(), nd.NumNPUs(), nd.NumNodes())
		}
		if !reflect.DeepEqual(h.Dims(), nd.Dims()) {
			t.Fatalf("sizes %v: dims %+v vs torus %+v", tc.sizes, h.Dims(), nd.Dims())
		}
		if !reflect.DeepEqual(h.Links(), nd.Links()) {
			t.Fatalf("sizes %v: link graphs differ:\nhier  %+v\ntorus %+v",
				tc.sizes, h.Links(), nd.Links())
		}
		for _, d := range nd.Dims() {
			chans := tc.rings[0]
			if d.Dim != DimLocal {
				chans = 2 * tc.rings[dimAxis(d.Dim)+1]
			}
			for n := Node(0); int(n) < nd.NumNPUs(); n++ {
				if hg, tg := h.Group(d.Dim, n), nd.Group(d.Dim, n); !reflect.DeepEqual(hg, tg) {
					t.Fatalf("sizes %v dim %v node %d: group %v vs torus %v", tc.sizes, d.Dim, n, hg, tg)
				}
				if d.Size <= 1 {
					continue
				}
				for c := 0; c < chans; c++ {
					hr, tr := h.RingOf(d.Dim, n, c), nd.RingOf(d.Dim, n, c)
					if !reflect.DeepEqual(hr.Nodes, tr.Nodes) || !reflect.DeepEqual(hr.Links, tr.Links) {
						t.Fatalf("sizes %v dim %v node %d chan %d: ring %+v vs torus %+v",
							tc.sizes, d.Dim, n, c, hr, tr)
					}
					next := tr.Next(n)
					if hp, tp := h.PathLinks(d.Dim, c, n, next), nd.PathLinks(d.Dim, c, n, next); !reflect.DeepEqual(hp, tp) {
						t.Fatalf("sizes %v dim %v chan %d hop %d->%d: path %v vs torus %v",
							tc.sizes, d.Dim, c, n, next, hp, tp)
					}
				}
			}
		}
	}
}

// dimAxis inverts AxisDim for the test: DimVertical -> 0, DimHorizontal
// -> 1, further axes in declaration order.
func dimAxis(d Dim) int {
	for i := 0; ; i++ {
		if AxisDim(i) == d {
			return i
		}
	}
}

// Degenerate compositions must build and stay self-consistent: unit
// dimensions contribute no links, a single dimension is a flat group,
// switch-only compositions allocate switch nodes above the NPU range,
// and a 1-lane FC dimension still connects every ordered pair.
func TestHierarchicalDegenerateCompositions(t *testing.T) {
	t.Run("unit-dims", func(t *testing.T) {
		h, err := NewHierarchical([]DimSpec{
			{Kind: KindRing, Size: 1, Lanes: 2, Class: IntraPackage},
			{Kind: KindSwitch, Size: 1, Lanes: 2, Class: InterPackage},
			{Kind: KindFullyConnected, Size: 4, Lanes: 1, Class: InterPackage},
		})
		if err != nil {
			t.Fatal(err)
		}
		if h.NumNPUs() != 4 {
			t.Fatalf("NumNPUs = %d, want 4", h.NumNPUs())
		}
		if h.NumNodes() != 4 {
			t.Fatalf("unit switch dim allocated switch nodes: NumNodes = %d", h.NumNodes())
		}
		// Only the FC dim carries links: 4*3 ordered pairs x 1 lane.
		if got := len(h.Links()); got != 12 {
			t.Fatalf("links = %d, want 12", got)
		}
	})
	t.Run("single-dim", func(t *testing.T) {
		h, err := NewHierarchical([]DimSpec{{Kind: KindRing, Size: 6, Lanes: 1, Class: IntraPackage}})
		if err != nil {
			t.Fatal(err)
		}
		if h.NumNPUs() != 6 || len(h.Dims()) != 1 {
			t.Fatalf("got %d NPUs, %d dims", h.NumNPUs(), len(h.Dims()))
		}
		if g := h.Group(DimLocal, 3); len(g) != 6 {
			t.Fatalf("single-dim group = %v", g)
		}
	})
	t.Run("switch-only", func(t *testing.T) {
		h, err := NewHierarchical([]DimSpec{{Kind: KindSwitch, Size: 8, Lanes: 2, Class: IntraPackage}})
		if err != nil {
			t.Fatal(err)
		}
		if h.NumNodes() != 10 {
			t.Fatalf("NumNodes = %d, want 8 NPUs + 2 switches (one per lane)", h.NumNodes())
		}
		d := h.Dims()[0]
		if !d.Direct || !d.Halving {
			t.Fatalf("pow2 switch dim = %+v, want Direct and Halving", d)
		}
		// Every pair is reachable in exactly two hops through the switch.
		for src := Node(0); src < 8; src++ {
			for dst := Node(0); dst < 8; dst++ {
				if src == dst {
					continue
				}
				path := h.PathLinks(DimLocal, 0, src, dst)
				if len(path) != 2 {
					t.Fatalf("path %d->%d = %v, want up+down", src, dst, path)
				}
			}
		}
	})
	t.Run("non-pow2-switch-not-halving", func(t *testing.T) {
		h, err := NewHierarchical([]DimSpec{{Kind: KindSwitch, Size: 6, Lanes: 1, Class: IntraPackage}})
		if err != nil {
			t.Fatal(err)
		}
		d := h.Dims()[0]
		if !d.Direct || d.Halving {
			t.Fatalf("6-wide switch dim = %+v, want Direct but not Halving", d)
		}
	})
	t.Run("one-lane-fc", func(t *testing.T) {
		h, err := NewHierarchical([]DimSpec{
			{Kind: KindRing, Size: 2, Lanes: 1, Class: IntraPackage},
			{Kind: KindFullyConnected, Size: 3, Lanes: 1, Class: InterPackage},
		})
		if err != nil {
			t.Fatal(err)
		}
		// Ring dim: 2 groups... the local dim forms 3 rings of 2 (one per
		// FC group member pair); FC dim: 2 groups of 3 with 6 ordered
		// pairs each.
		for n := Node(0); int(n) < h.NumNPUs(); n++ {
			g := h.Group(AxisDim(0), n)
			if len(g) != 3 {
				t.Fatalf("fc group of %d = %v", n, g)
			}
			for _, peer := range g {
				if peer == n {
					continue
				}
				if path := h.PathLinks(AxisDim(0), 0, n, peer); len(path) != 1 {
					t.Fatalf("fc path %d->%d = %v, want one dedicated link", n, peer, path)
				}
			}
		}
	})
	t.Run("rejects", func(t *testing.T) {
		bad := [][]DimSpec{
			nil,
			{{Kind: KindRing, Size: 0, Lanes: 1, Class: IntraPackage}},
			{{Kind: KindRing, Size: 2, Lanes: 0, Class: IntraPackage}},
			{{Kind: DimKind(99), Size: 2, Lanes: 1, Class: IntraPackage}},
		}
		for _, specs := range bad {
			if _, err := NewHierarchical(specs); err == nil {
				t.Fatalf("NewHierarchical(%+v) accepted", specs)
			}
		}
	})
}

// Ring lookups sit on the per-message send path of every collective, so
// RingOf and ring-dimension PathLinks must not allocate, on the 3D torus
// and on a hier: all-ring composition alike.
func TestRingLookupsDoNotAllocate(t *testing.T) {
	torus := mustTorus(t, 4, 4, 4)
	ring := DimSpec{Kind: KindRing, Size: 4, Lanes: 2, Class: InterPackage}
	hier, err := NewHierarchical([]DimSpec{{Kind: KindRing, Size: 4, Lanes: 2, Class: IntraPackage}, ring, ring})
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range []*Hierarchical{torus, hier} {
		for _, d := range tp.Dims() {
			n := Node(tp.NumNPUs() - 1)
			c := d.Channels - 1
			next := tp.RingOf(d.Dim, n, c).Next(n)
			if a := testing.AllocsPerRun(100, func() { tp.RingOf(d.Dim, n, c) }); a != 0 {
				t.Errorf("%s: RingOf(%v) allocates %v times", tp.Name(), d.Dim, a)
			}
			if a := testing.AllocsPerRun(100, func() { tp.PathLinks(d.Dim, c, n, next) }); a != 0 {
				t.Errorf("%s: PathLinks(%v) allocates %v times", tp.Name(), d.Dim, a)
			}
		}
	}
}

// BenchmarkNewTorus16x8x16 measures building the largest torus the
// benchmark's fabric workloads use.
func BenchmarkNewTorus16x8x16(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewTorus(16, 8, 16, DefaultTorusConfig()); err != nil {
			b.Fatal(err)
		}
	}
}
