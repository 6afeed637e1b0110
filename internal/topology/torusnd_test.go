package topology

import "testing"

func mustND(t *testing.T, sizes []int) *Hierarchical {
	t.Helper()
	nd, err := NewTorusND(sizes, nil)
	if err != nil {
		t.Fatal(err)
	}
	return nd
}

func TestTorusNDBasics(t *testing.T) {
	nd := mustND(t, []int{2, 2, 2, 2}) // 4D: 16 NPUs
	if nd.NumNPUs() != 16 {
		t.Errorf("NumNPUs = %d, want 16", nd.NumNPUs())
	}
	if nd.Name() != "2x2x2x2 torus" {
		t.Errorf("Name = %q", nd.Name())
	}
	dims := nd.Dims()
	if len(dims) != 4 {
		t.Fatalf("dims = %d, want 4", len(dims))
	}
	if dims[0].Dim != DimLocal || dims[0].Channels != 2 {
		t.Errorf("dims[0] = %+v", dims[0])
	}
	for i := 1; i < 4; i++ {
		if dims[i].Channels != 4 { // 2 bidirectional rings
			t.Errorf("dims[%d].Channels = %d, want 4", i, dims[i].Channels)
		}
		if dims[i].Size != 2 {
			t.Errorf("dims[%d].Size = %d, want 2", i, dims[i].Size)
		}
	}
	if dims[3].Dim.String() != "axis3" {
		t.Errorf("4th dimension named %q, want axis3", dims[3].Dim.String())
	}
}

func TestTorusNDGroupsPartition(t *testing.T) {
	nd := mustND(t, []int{2, 3, 2, 2})
	for _, d := range nd.Dims() {
		counts := make(map[Node]int)
		for n := 0; n < nd.NumNPUs(); n++ {
			g := nd.Group(d.Dim, Node(n))
			if len(g) != d.Size {
				t.Fatalf("dim %v: group size %d, want %d", d.Dim, len(g), d.Size)
			}
			found := false
			for _, m := range g {
				if m == Node(n) {
					found = true
				}
				counts[m]++
			}
			if !found {
				t.Fatalf("dim %v: node %d not in its own group", d.Dim, n)
			}
		}
		// Each node appears in exactly Size groups' worth of listings
		// (once per member's Group call).
		for n, c := range counts {
			if c != d.Size {
				t.Fatalf("dim %v: node %d listed %d times, want %d", d.Dim, n, c, d.Size)
			}
		}
	}
}

func TestTorusNDRingsCycle(t *testing.T) {
	nd := mustND(t, []int{2, 2, 3, 2})
	for _, d := range nd.Dims() {
		for c := 0; c < d.Channels; c++ {
			r := nd.RingOf(d.Dim, 5, c)
			if r.Size() != d.Size {
				t.Fatalf("dim %v ch %d: ring size %d, want %d", d.Dim, c, r.Size(), d.Size)
			}
			n := r.Nodes[0]
			for i := 0; i < r.Size(); i++ {
				n = r.Next(n)
			}
			if n != r.Nodes[0] {
				t.Fatalf("dim %v ch %d: not a cycle", d.Dim, c)
			}
		}
	}
}

// TorusND([m, k, n]) must expose the same dimension sizes and link counts
// as NewTorus(m, n, k).
func TestTorusNDMatches3D(t *testing.T) {
	nd := mustND(t, []int{2, 3, 4})
	td := mustTorus(t, 2, 4, 3)
	if nd.NumNPUs() != td.NumNPUs() {
		t.Fatalf("NPUs %d vs %d", nd.NumNPUs(), td.NumNPUs())
	}
	if len(nd.Links()) != len(td.Links()) {
		t.Errorf("links %d vs %d", len(nd.Links()), len(td.Links()))
	}
	ndd, tdd := nd.Dims(), td.Dims()
	for i := range ndd {
		if ndd[i].Size != tdd[i].Size || ndd[i].Channels != tdd[i].Channels {
			t.Errorf("dim %d: %+v vs %+v", i, ndd[i], tdd[i])
		}
	}
}

func TestTorusNDLinkClasses(t *testing.T) {
	nd := mustND(t, []int{2, 2, 2})
	var intra, inter int
	for _, l := range nd.Links() {
		if l.Class == IntraPackage {
			intra++
		} else {
			inter++
		}
	}
	// Local: 4 packages x 2 rings x 2 links = 16. Inter: 2 axes x 4
	// groups x 4 channels x 2 links = 64.
	if intra != 16 || inter != 64 {
		t.Errorf("intra/inter = %d/%d, want 16/64", intra, inter)
	}
}

func TestTorusNDPathLinks(t *testing.T) {
	nd := mustND(t, []int{2, 2, 2, 2})
	d := nd.Dims()[3].Dim
	r := nd.RingOf(d, 0, 0)
	next := r.Next(0)
	path := nd.PathLinks(d, 0, 0, next)
	if len(path) != 1 {
		t.Fatalf("path len %d, want 1", len(path))
	}
	spec := nd.Links()[path[0]]
	if spec.Src != 0 || spec.Dst != next {
		t.Errorf("path link %+v, want 0 -> %d", spec, next)
	}
}

func TestTorusNDErrors(t *testing.T) {
	if _, err := NewTorusND([]int{4}, nil); err == nil {
		t.Error("expected error for single axis")
	}
	if _, err := NewTorusND([]int{2, 0, 2}, nil); err == nil {
		t.Error("expected error for zero axis size")
	}
	if _, err := NewTorusND([]int{2, 2}, []int{0}); err == nil {
		t.Error("expected error for zero ring count")
	}
}

func TestAxisDim(t *testing.T) {
	if AxisDim(0) != DimVertical || AxisDim(1) != DimHorizontal {
		t.Error("first two axes must reuse vertical/horizontal")
	}
	if AxisDim(2) == AxisDim(3) {
		t.Error("higher axes must get distinct identifiers")
	}
	if AxisDim(2).String() != "axis3" {
		t.Errorf("AxisDim(2) = %q, want axis3", AxisDim(2).String())
	}
}
