package topology

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
)

// torusReferenceFile freezes the observable surface of the 3D torus as it
// was built by the original dedicated torus type: names, node counts,
// dimension metadata, the full link list in link-ID order, and every ring
// RingOf returns. Fault plans name link IDs and straggler nodes, so this
// numbering is part of the simulator's input contract. The file is never
// re-recorded.
const torusReferenceFile = "testdata/torus_reference.json"

// refRing is one distinct ring a shape's RingOf lookups return.
type refRing struct {
	Dim     Dim      `json:"dim"`
	Channel int      `json:"channel"`
	Nodes   []Node   `json:"nodes"`
	Links   []LinkID `json:"links"`
}

// refShape is the full recording of one torus shape.
type refShape struct {
	Shape    [3]int    `json:"shape"` // local, horizontal, vertical
	Rings    [3]int    `json:"rings"` // TorusConfig local, horizontal, vertical
	Name     string    `json:"name"`
	NumNodes int       `json:"num_nodes"`
	Dims     []DimInfo `json:"dims"`
	Links    [][3]int  `json:"links"` // src, dst, class; the index is the link ID
	RingSet  []refRing `json:"ring_set"`
	// RingOf[i][n][c] indexes RingSet with the ring RingOf(Dims[i].Dim,
	// n, c) returned.
	RingOf [][][]int `json:"ring_of"`
}

// refDigest pins a shape too large to store by the SHA-256 of
// renderTorus.
type refDigest struct {
	Shape  [3]int `json:"shape"`
	Rings  [3]int `json:"rings"`
	SHA256 string `json:"sha256"`
}

type torusReference struct {
	Shapes  []refShape  `json:"shapes"`
	Digests []refDigest `json:"digests"`
}

func buildRefTorus(t *testing.T, shape, rings [3]int) Topology {
	t.Helper()
	tp, err := NewTorus(shape[0], shape[1], shape[2],
		TorusConfig{LocalRings: rings[0], HorizontalRings: rings[1], VerticalRings: rings[2]})
	if err != nil {
		t.Fatalf("NewTorus%v: %v", shape, err)
	}
	return tp
}

// renderTorus writes every recorded observable of tp as text: name, node
// count, dims, links, and the ring of each (dim, node, channel).
func renderTorus(tp Topology) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%d\n", tp.Name(), tp.NumNodes())
	for _, d := range tp.Dims() {
		fmt.Fprintf(&b, "dim %+v\n", d)
	}
	for _, l := range tp.Links() {
		fmt.Fprintf(&b, "link %d %d %d %d\n", l.ID, l.Src, l.Dst, l.Class)
	}
	for _, d := range tp.Dims() {
		for n := 0; n < tp.NumNPUs(); n++ {
			for c := 0; c < d.Channels; c++ {
				r := tp.RingOf(d.Dim, Node(n), c)
				fmt.Fprintf(&b, "ring %d %d %d %d %v %v\n", d.Dim, n, r.Dim, r.Channel, r.Nodes, r.Links)
			}
		}
	}
	return b.String()
}

func TestTorusMatchesFrozenReference(t *testing.T) {
	raw, err := os.ReadFile(torusReferenceFile)
	if err != nil {
		t.Fatal(err)
	}
	var ref torusReference
	if err := json.Unmarshal(raw, &ref); err != nil {
		t.Fatal(err)
	}
	if len(ref.Shapes) == 0 || len(ref.Digests) == 0 {
		t.Fatalf("%s holds %d shapes and %d digests", torusReferenceFile, len(ref.Shapes), len(ref.Digests))
	}
	for _, want := range ref.Shapes {
		tp := buildRefTorus(t, want.Shape, want.Rings)
		if tp.Name() != want.Name || tp.NumNodes() != want.NumNodes {
			t.Fatalf("%v: name %q nodes %d, want %q nodes %d",
				want.Shape, tp.Name(), tp.NumNodes(), want.Name, want.NumNodes)
		}
		if !reflect.DeepEqual(tp.Dims(), want.Dims) {
			t.Fatalf("%v: dims %+v, want %+v", want.Shape, tp.Dims(), want.Dims)
		}
		links := tp.Links()
		if len(links) != len(want.Links) {
			t.Fatalf("%v: %d links, want %d", want.Shape, len(links), len(want.Links))
		}
		for i, l := range links {
			got := [3]int{int(l.Src), int(l.Dst), int(l.Class)}
			if int(l.ID) != i || got != want.Links[i] {
				t.Fatalf("%v: link %d = %+v, want src/dst/class %v", want.Shape, i, l, want.Links[i])
			}
		}
		for i, d := range want.Dims {
			for n := 0; n < tp.NumNPUs(); n++ {
				for c := 0; c < d.Channels; c++ {
					r := tp.RingOf(d.Dim, Node(n), c)
					w := want.RingSet[want.RingOf[i][n][c]]
					got := refRing{Dim: r.Dim, Channel: r.Channel, Nodes: r.Nodes, Links: r.Links}
					if got.Links == nil {
						got.Links = []LinkID{}
					}
					if !reflect.DeepEqual(got, w) {
						t.Fatalf("%v: RingOf(%v, %d, %d) = %+v, want %+v", want.Shape, d.Dim, n, c, got, w)
					}
					if c == 0 && !reflect.DeepEqual(tp.Group(d.Dim, Node(n)), w.Nodes) {
						t.Fatalf("%v: Group(%v, %d) = %v, want %v", want.Shape, d.Dim, n, tp.Group(d.Dim, Node(n)), w.Nodes)
					}
					if len(w.Nodes) > 1 {
						next := r.Next(Node(n))
						path := tp.PathLinks(d.Dim, c, Node(n), next)
						if len(path) != 1 || path[0] != r.LinkFrom(Node(n)) {
							t.Fatalf("%v: PathLinks(%v, %d, %d, %d) = %v", want.Shape, d.Dim, c, n, next, path)
						}
					}
				}
			}
		}
	}
	for _, want := range ref.Digests {
		sum := sha256.Sum256([]byte(renderTorus(buildRefTorus(t, want.Shape, want.Rings))))
		if got := hex.EncodeToString(sum[:]); got != want.SHA256 {
			t.Fatalf("%v: rendering sha256 %s, want %s", want.Shape, got, want.SHA256)
		}
	}
}
