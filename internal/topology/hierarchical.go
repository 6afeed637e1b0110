package topology

import (
	"fmt"
	"strings"
)

// DimKind selects the connectivity pattern of one Hierarchical dimension
// (the ASTRA-sim 2.0 per-dimension network types).
type DimKind int

const (
	// KindRing connects each group as parallel unidirectional rings
	// (split-bidirectional beyond dimension 0, as in the torus).
	KindRing DimKind = iota
	// KindFullyConnected gives every ordered pair in a group a dedicated
	// unidirectional link per lane (direct single-step exchange).
	KindFullyConnected
	// KindSwitch connects each group through per-group switch nodes
	// (lanes = switch count); power-of-two switch groups schedule
	// halving-doubling collectives.
	KindSwitch
)

func (k DimKind) String() string {
	switch k {
	case KindRing:
		return "ring"
	case KindFullyConnected:
		return "fc"
	case KindSwitch:
		return "sw"
	}
	return fmt.Sprintf("DimKind(%d)", int(k))
}

// DimSpec describes one dimension of a Hierarchical composition. The link
// class selects the bandwidth/latency/efficiency/packet-size bundle the
// network layer assigns (Table IV); lane count multiplies physical links,
// not per-link bandwidth, exactly as for torus rings.
type DimSpec struct {
	Kind DimKind
	// Size is the number of NPUs in one group of this dimension.
	Size int
	// Lanes counts parallel fabric planes: unidirectional local rings /
	// bidirectional ring pairs (KindRing, dimension 0 / beyond),
	// per-pair links (KindFullyConnected), or switches (KindSwitch).
	Lanes int
	// Class is the link class for every link this dimension owns.
	Class LinkClass
}

func (s DimSpec) String() string {
	return fmt.Sprintf("%s%d", s.Kind, s.Size)
}

// fcKey addresses one fully-connected link: lane plus ordered endpoints.
type fcKey struct {
	lane     int
	src, dst Node
}

// Hierarchical composes an ordered list of dimension specs into one
// topology: dimension 0 is the intra-package ("local") dimension, higher
// dimensions connect NPUs with equal lower coordinates across groups —
// the compositional network generalization of ASTRA-sim 2.0. Ring
// dimensions build a hierarchical torus (NewTorus and NewTorusND are
// all-ring compositions), fully-connected dimensions add a dedicated
// unidirectional link per ordered pair per lane, and switch dimensions
// add per-group switch nodes with up/down links per lane.
//
// Node numbering: with sizes [S0, S1, ..., Sd] the package index is
// mixed-radix over (S1..Sd) with S1 fastest, and NPU id = pkg*S0 + local.
// Switch nodes occupy ids [NumNPUs, NumNodes). Links are created
// dimension by dimension, visiting each dimension's groups in order of
// their lowest NPU id. NewTorus alone builds in the torus layout, which
// numbers NPUs and links as the 3D torus always has (see torusLayout).
type Hierarchical struct {
	specs   []DimSpec
	chans   []int // scheduling channels per dimension
	strides []int // package-index stride per dimension > 0
	npus    int

	links []LinkSpec
	// rings[dim][slot][channel] for ring dimensions (nil otherwise);
	// slots[dim][npu] is the npu's group slot along dim.
	rings [][][]*Ring
	slots [][]int
	// swUp/swDown[dim][npu][lane] for switch dimensions (nil otherwise).
	swUp, swDown [][][]LinkID
	// fc[dim] for fully-connected dimensions (nil otherwise).
	fc []map[fcKey]LinkID

	switches int // total switch nodes across all switch dimensions
	// name overrides the composition's spec-derived name (the tori).
	name string
	// torusLayout reproduces the 3D torus numbering fault plans and
	// goldens were written against (set only by NewTorus): the package
	// index runs over (Sd..S1) with Sd fastest, and groups of dimensions
	// above 0 are visited local-index-major.
	torusLayout bool
}

// NewHierarchical builds the composition described by specs (at least one
// dimension). Unit dimensions (Size 1) are legal and own no links.
func NewHierarchical(specs []DimSpec) (*Hierarchical, error) {
	return newHierarchical(specs, "", false)
}

func newHierarchical(specs []DimSpec, name string, torusLayout bool) (*Hierarchical, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("topology: hierarchical composition needs at least one dimension")
	}
	h := &Hierarchical{specs: append([]DimSpec(nil), specs...), name: name, torusLayout: torusLayout}
	for i, s := range specs {
		switch s.Kind {
		case KindRing, KindFullyConnected, KindSwitch:
		default:
			return nil, fmt.Errorf("topology: dimension %d has unknown kind %v", i, s.Kind)
		}
		if s.Size <= 0 {
			return nil, fmt.Errorf("topology: dimension %d (%s) has invalid size %d", i, s.Kind, s.Size)
		}
		if s.Lanes <= 0 {
			return nil, fmt.Errorf("topology: dimension %d (%s) has invalid lane count %d", i, s.Kind, s.Lanes)
		}
		switch s.Class {
		case IntraPackage, InterPackage, ScaleOutLink:
		default:
			return nil, fmt.Errorf("topology: dimension %d (%s) has unknown link class %v", i, s.Kind, s.Class)
		}
		ch := s.Lanes
		if s.Kind == KindRing && i > 0 {
			var ok bool
			if ch, ok = mulAdd(2, s.Lanes, 0); !ok { // split bidirectional rings
				return nil, fmt.Errorf("topology: %s: dimension %d has more ring channels than an int can count", h.Name(), i)
			}
		}
		h.chans = append(h.chans, ch)
	}
	if err := h.countNodes(); err != nil {
		return nil, err
	}
	h.strides = make([]int, len(specs))
	stride := 1
	for k := 1; k < len(specs); k++ {
		i := k
		if torusLayout {
			i = len(specs) - k
		}
		h.strides[i] = stride
		stride *= specs[i].Size
	}
	h.build()
	return h, nil
}

// countNodes sets the NPU count and rejects compositions whose NPU or
// node count overflows int, before anything is allocated for them.
func (h *Hierarchical) countNodes() error {
	npus, ok := 1, true
	for _, s := range h.specs {
		if npus, ok = mulAdd(npus, s.Size, 0); !ok {
			return errTooLarge(h.Name())
		}
	}
	nodes := npus
	for _, s := range h.specs {
		if s.Kind == KindSwitch && s.Size > 1 {
			if nodes, ok = mulAdd(npus/s.Size, s.Lanes, nodes); !ok {
				return errTooLarge(h.Name())
			}
		}
	}
	h.npus = npus
	return nil
}

func (h *Hierarchical) addLink(src, dst Node, class LinkClass) LinkID {
	id := LinkID(len(h.links))
	h.links = append(h.links, LinkSpec{ID: id, Src: src, Dst: dst, Class: class})
	return id
}

func (h *Hierarchical) makeRing(d Dim, channel int, base []Node, class LinkClass) *Ring {
	nodes := ringDirection(base, channel)
	r := &Ring{Dim: d, Channel: channel, Nodes: nodes}
	if len(nodes) > 1 {
		r.Links = make([]LinkID, len(nodes))
		for i := range nodes {
			r.Links[i] = h.addLink(nodes[i], nodes[(i+1)%len(nodes)], class)
		}
	}
	return r
}

// dimOf maps a dimension index to its Dim identifier (local first, then
// the inter-package axes in declaration order).
func dimOf(i int) Dim {
	if i == 0 {
		return DimLocal
	}
	return AxisDim(i - 1)
}

// checkNode panics unless n is an NPU of h.
func (h *Hierarchical) checkNode(n Node) {
	if n < 0 || int(n) >= h.npus {
		panic(fmt.Sprintf("topology: node %d out of range for %s", n, h.Name()))
	}
}

// dimGroup returns the ordered nodes sharing every coordinate with n
// except along the given dimension.
func (h *Hierarchical) dimGroup(dim int, n Node) []Node {
	h.checkNode(n)
	s0 := h.specs[0].Size
	l, p := int(n)%s0, int(n)/s0
	out := make([]Node, h.specs[dim].Size)
	if dim == 0 {
		for v := range out {
			out[v] = Node(p*s0 + v)
		}
		return out
	}
	stride := h.strides[dim]
	p -= p / stride % h.specs[dim].Size * stride // zero n's coordinate along dim
	for v := range out {
		out[v] = Node((p+v*stride)*s0 + l)
	}
	return out
}

// build creates every dimension's links and records each NPU's group slot.
// Groups are visited in order of their lowest NPU id, or local-index-major
// under the torus layout.
func (h *Hierarchical) build() {
	n, npus := len(h.specs), h.npus
	s0 := h.specs[0].Size
	pkgs := npus / s0
	h.rings = make([][][]*Ring, n)
	h.slots = make([][]int, n)
	h.swUp = make([][][]LinkID, n)
	h.swDown = make([][][]LinkID, n)
	h.fc = make([]map[fcKey]LinkID, n)
	for dim, spec := range h.specs {
		slot := make([]int, npus)
		for i := range slot {
			slot[i] = -1
		}
		switch spec.Kind {
		case KindRing:
			h.rings[dim] = make([][]*Ring, 0, npus/spec.Size)
		case KindSwitch:
			h.swUp[dim] = make([][]LinkID, npus)
			h.swDown[dim] = make([][]LinkID, npus)
		case KindFullyConnected:
			h.fc[dim] = make(map[fcKey]LinkID)
		}
		groups := 0
		for i := 0; i < npus; i++ {
			v := i
			if h.torusLayout {
				v = i%pkgs*s0 + i/pkgs
			}
			if slot[v] >= 0 {
				continue
			}
			base := h.dimGroup(dim, Node(v))
			for _, m := range base {
				slot[m] = groups
			}
			groups++
			switch spec.Kind {
			case KindRing:
				chans := make([]*Ring, h.chans[dim])
				for c := range chans {
					chans[c] = h.makeRing(dimOf(dim), c, base, spec.Class)
				}
				h.rings[dim] = append(h.rings[dim], chans)
			case KindSwitch:
				h.buildSwitchGroup(dim, spec, base)
			case KindFullyConnected:
				h.buildFCGroup(dim, spec, base)
			}
		}
		if spec.Kind == KindRing {
			h.slots[dim] = slot
		}
	}
}

// buildSwitchGroup allocates the group's switch nodes (one per lane) and
// the up/down links of every member, in group order.
func (h *Hierarchical) buildSwitchGroup(dim int, spec DimSpec, base []Node) {
	if len(base) <= 1 {
		return // a unit group schedules no traffic and needs no switch
	}
	first := Node(h.NumNPUs() + h.switches)
	h.switches += spec.Lanes
	for _, m := range base {
		up := make([]LinkID, spec.Lanes)
		down := make([]LinkID, spec.Lanes)
		for lane := 0; lane < spec.Lanes; lane++ {
			sw := first + Node(lane)
			up[lane] = h.addLink(m, sw, spec.Class)
			down[lane] = h.addLink(sw, m, spec.Class)
		}
		h.swUp[dim][m] = up
		h.swDown[dim][m] = down
	}
}

// buildFCGroup adds one unidirectional link per ordered pair per lane.
func (h *Hierarchical) buildFCGroup(dim int, spec DimSpec, base []Node) {
	for lane := 0; lane < spec.Lanes; lane++ {
		for _, src := range base {
			for _, dst := range base {
				if src == dst {
					continue
				}
				h.fc[dim][fcKey{lane, src, dst}] = h.addLink(src, dst, spec.Class)
			}
		}
	}
}

// Name implements Topology.
func (h *Hierarchical) Name() string {
	if h.name != "" {
		return h.name
	}
	parts := make([]string, len(h.specs))
	for i, s := range h.specs {
		parts[i] = s.String()
	}
	return strings.Join(parts, "+") + " hier"
}

// NumNPUs implements Topology.
func (h *Hierarchical) NumNPUs() int { return h.npus }

// NumNodes implements Topology.
func (h *Hierarchical) NumNodes() int { return h.NumNPUs() + h.switches }

// isPow2 reports whether v is a power of two (v > 0).
func isPow2(v int) bool { return v > 0 && v&(v-1) == 0 }

// Dims implements Topology: declaration order, local dimension first.
func (h *Hierarchical) Dims() []DimInfo {
	out := make([]DimInfo, len(h.specs))
	for i, s := range h.specs {
		out[i] = DimInfo{
			Dim:      dimOf(i),
			Size:     s.Size,
			Channels: h.chans[i],
			Direct:   s.Kind != KindRing,
			Halving:  s.Kind == KindSwitch && s.Size > 1 && isPow2(s.Size),
		}
	}
	return out
}

// dimIndex inverts dimOf.
func (h *Hierarchical) dimIndex(d Dim) int {
	for i := range h.specs {
		if dimOf(i) == d {
			return i
		}
	}
	panic(fmt.Sprintf("topology: %s has no dimension %v", h.Name(), d))
}

// Group implements Topology. Ring dimensions return channel 0's node
// slice, which callers must not modify.
func (h *Hierarchical) Group(d Dim, n Node) []Node {
	dim := h.dimIndex(d)
	if h.specs[dim].Kind == KindRing {
		return h.ringsOf(dim, n)[0].Nodes
	}
	return h.dimGroup(dim, n)
}

// ringsOf returns the channels of n's group along ring dimension dim.
func (h *Hierarchical) ringsOf(dim int, n Node) []*Ring {
	h.checkNode(n)
	return h.rings[dim][h.slots[dim][n]]
}

// RingOf implements Topology. Panics on non-ring dimensions.
func (h *Hierarchical) RingOf(d Dim, n Node, channel int) *Ring {
	dim := h.dimIndex(d)
	if h.specs[dim].Kind != KindRing {
		panic(fmt.Sprintf("topology: dimension %v of %s is %s, not a ring", d, h.Name(), h.specs[dim].Kind))
	}
	chans := h.ringsOf(dim, n)
	return chans[channel%len(chans)]
}

// PathLinks implements Topology: ring successor hop on ring dimensions,
// the dedicated pair link on fully-connected dimensions (lanes spread by
// channel), and an up/down switch traversal on switch dimensions (the
// switch is picked by tournament round plus channel, spreading a group's
// simultaneous exchanges across lanes exactly like the global-switch
// topology).
func (h *Hierarchical) PathLinks(d Dim, channel int, src, dst Node) []LinkID {
	dim := h.dimIndex(d)
	spec := h.specs[dim]
	switch spec.Kind {
	case KindRing:
		r := h.RingOf(d, src, channel)
		i := r.IndexOf(src)
		if len(r.Links) == 0 || r.Nodes[(i+1)%len(r.Nodes)] != dst {
			panic(fmt.Sprintf("topology: %d is not %d's successor on %v ring %d", dst, src, d, channel))
		}
		return r.Links[i : i+1 : i+1]
	case KindFullyConnected:
		lane := channel % spec.Lanes
		id, ok := h.fc[dim][fcKey{lane, src, dst}]
		if !ok {
			panic(fmt.Sprintf("topology: no %v link %d->%d (lane %d) in %s", d, src, dst, lane, h.Name()))
		}
		return []LinkID{id}
	default: // KindSwitch
		g := h.dimGroup(dim, src)
		si, di := -1, -1
		for i, m := range g {
			if m == src {
				si = i
			}
			if m == dst {
				di = i
			}
		}
		if si < 0 || di < 0 || si == di {
			panic(fmt.Sprintf("topology: %d and %d do not share %v group in %s", src, dst, d, h.Name()))
		}
		lane := (matchRound(si, di, len(g)) + channel) % spec.Lanes
		return []LinkID{h.swUp[dim][src][lane], h.swDown[dim][dst][lane]}
	}
}

// Links implements Topology.
func (h *Hierarchical) Links() []LinkSpec { return h.links }

var _ Topology = (*Hierarchical)(nil)
