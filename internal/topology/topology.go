// Package topology models the logical scale-up topologies of the paper:
// the hierarchical 3D torus (Fig. 3a) and the hierarchical alltoall
// (Fig. 3b), together with the physical links each one owns. A Topology
// is the only description of a fabric: NPU and package counts, ring and
// switch counts are read from it, never from the system config.
//
// A hierarchical torus of size MxNxK has a "local" dimension of M NPUs per
// package connected by fast intra-package rings, and "horizontal" (N) and
// "vertical" (K) dimensions of inter-package rings connecting NPUs with the
// same local index across packages. NewTorus builds it as an all-ring
// Hierarchical composition, the ordered-dimension builder that also backs
// N-dimensional tori and hier: specs. The hierarchical alltoall of size
// MxN keeps the local rings and connects every NPU to a set of global
// switches that provide alltoall connectivity between packages; it, the
// switch-based and the scale-out topologies keep builders of their own.
//
// Every *bidirectional* inter-package ring is split into two unidirectional
// rings (paper §III-C), and every unidirectional ring owns its own physical
// links; parallel rings multiply the link count, not the per-link
// bandwidth. The number of parallel channels per dimension also determines
// how many logical scheduling queues (LSQs) the system layer creates for
// that dimension.
package topology

import (
	"fmt"
	"math"
)

// Node identifies a network endpoint. NPUs occupy ids [0, NumNPUs); global
// switches (alltoall topology only) occupy ids [NumNPUs, NumNodes).
type Node int

// Dim names a dimension of the hierarchical topology. Dimensions are also
// the phases of hierarchical collectives, executed in the paper's order:
// local first, then vertical, then horizontal (torus), or local then
// package (alltoall).
type Dim int

const (
	// DimLocal is the intra-package dimension (fast NAM-to-NAM rings).
	DimLocal Dim = iota
	// DimVertical is the inter-package vertical torus dimension.
	DimVertical
	// DimHorizontal is the inter-package horizontal torus dimension.
	DimHorizontal
	// DimPackage is the alltoall topology's inter-package dimension
	// (direct exchange through the global switches).
	DimPackage
)

// DimScaleOut is the scale-out dimension of the ScaleOut extension: pods
// of scale-up fabric connected through an ethernet-like spine (the
// paper's concluding future-work item). It uses a value far above the
// inter-package axis range so N-dimensional tori can never collide with
// it.
const DimScaleOut Dim = 1 << 16

func (d Dim) String() string {
	switch d {
	case DimLocal:
		return "local"
	case DimVertical:
		return "vertical"
	case DimHorizontal:
		return "horizontal"
	case DimPackage:
		return "package"
	case DimScaleOut:
		return "scale-out"
	}
	if d > DimPackage {
		// AxisDim(i) for i >= 2 maps to DimPackage + i - 1 and is the
		// (i+1)-th inter-package axis, named 1-based: axis3, axis4, ...
		return fmt.Sprintf("axis%d", int(d-DimPackage)+2)
	}
	return fmt.Sprintf("Dim(%d)", int(d))
}

// ParseDim inverts Dim.String: "local", "vertical", "horizontal",
// "package", "scale-out", and "axisN" for N >= 3.
func ParseDim(s string) (Dim, error) {
	switch s {
	case "local":
		return DimLocal, nil
	case "vertical":
		return DimVertical, nil
	case "horizontal":
		return DimHorizontal, nil
	case "package":
		return DimPackage, nil
	case "scale-out":
		return DimScaleOut, nil
	}
	var n int
	if _, err := fmt.Sscanf(s, "axis%d", &n); err == nil && n >= 3 {
		return AxisDim(n - 1), nil
	}
	return 0, fmt.Errorf("topology: unknown dimension %q", s)
}

// AxisDim names the i-th inter-package axis of an N-dimensional torus:
// AxisDim(0) is the vertical dimension, AxisDim(1) the horizontal one, and
// higher axes (the paper's 4D/5D future-work topologies) get fresh
// identifiers printed as "axis3", "axis4", ...
func AxisDim(i int) Dim {
	switch i {
	case 0:
		return DimVertical
	case 1:
		return DimHorizontal
	}
	return DimPackage + Dim(i-1)
}

// LinkClass distinguishes fast intra-package links from slower
// inter-package links; the network layer assigns bandwidth, latency,
// efficiency and packet size per class (Table IV).
type LinkClass int

const (
	// IntraPackage links connect NAMs inside one package (~200 GB/s).
	IntraPackage LinkClass = iota
	// InterPackage links connect packages or switches (~25 GB/s).
	InterPackage
	// ScaleOutLink links cross the scale-out (ethernet-like) fabric
	// between pods (~12.5 GB/s, microsecond-scale latency).
	ScaleOutLink
)

func (c LinkClass) String() string {
	switch c {
	case IntraPackage:
		return "intra-package"
	case InterPackage:
		return "inter-package"
	case ScaleOutLink:
		return "scale-out"
	}
	return fmt.Sprintf("LinkClass(%d)", int(c))
}

// LinkID indexes a physical link.
type LinkID int

// LinkSpec describes one unidirectional physical link.
type LinkSpec struct {
	ID    LinkID
	Src   Node
	Dst   Node
	Class LinkClass
}

// Ring is one unidirectional logical ring. Nodes lists the cycle in order;
// Links[i] is the physical link from Nodes[i] to Nodes[(i+1)%len].
type Ring struct {
	Dim     Dim
	Channel int // which parallel ring within the dimension group
	Nodes   []Node
	Links   []LinkID
}

// Size returns the number of nodes on the ring.
func (r *Ring) Size() int { return len(r.Nodes) }

// IndexOf returns the position of n on the ring, or -1.
func (r *Ring) IndexOf(n Node) int {
	for i, v := range r.Nodes {
		if v == n {
			return i
		}
	}
	return -1
}

// Next returns n's successor on the ring.
func (r *Ring) Next(n Node) Node {
	i := r.IndexOf(n)
	if i < 0 {
		panic(fmt.Sprintf("topology: node %d not on ring %v/%d", n, r.Dim, r.Channel))
	}
	return r.Nodes[(i+1)%len(r.Nodes)]
}

// LinkFrom returns the physical link leaving n along the ring.
func (r *Ring) LinkFrom(n Node) LinkID {
	i := r.IndexOf(n)
	if i < 0 {
		panic(fmt.Sprintf("topology: node %d not on ring %v/%d", n, r.Dim, r.Channel))
	}
	return r.Links[i]
}

// DimInfo summarizes one dimension of a topology.
type DimInfo struct {
	Dim Dim
	// Size is the number of NPUs in one group of this dimension (e.g.
	// the ring length, or the alltoall group size).
	Size int
	// Channels is the number of parallel unidirectional rings (ring
	// dimensions) or global switches (package dimension). It determines
	// the LSQ count for the dimension.
	Channels int
	// Direct is true when the dimension is all-to-all connected (single
	// step reaches any peer) rather than a ring.
	Direct bool
	// Halving is true when the dimension prefers recursive
	// halving-doubling schedules for reduce-scatter/all-gather/all-reduce
	// (power-of-two switch dimensions of the Hierarchical builder).
	// Halving implies Direct: any pair of group members is reachable in
	// one step, which is what the XOR-partner exchange requires.
	Halving bool
}

// Topology is a logical hierarchical topology plus the physical links
// realizing it.
type Topology interface {
	// Name returns a human-readable description like "4x4x4 torus".
	Name() string
	// NumNPUs returns the number of compute endpoints.
	NumNPUs() int
	// NumNodes returns NPUs plus switches.
	NumNodes() int
	// Dims lists dimensions in hierarchical collective phase order.
	Dims() []DimInfo
	// Group returns the ordered NPUs sharing dimension d with node n
	// (including n). For ring dimensions the order follows channel 0's
	// ring orientation.
	Group(d Dim, n Node) []Node
	// RingOf returns the channel-th unidirectional ring of dimension d
	// containing n. Panics if d is a direct dimension.
	RingOf(d Dim, n Node, channel int) *Ring
	// PathLinks returns the physical links a message takes from src to
	// dst within dimension d on the given channel. For ring dimensions
	// dst must be src's ring successor; for the package dimension any
	// pair within the group is reachable through a global switch.
	PathLinks(d Dim, channel int, src, dst Node) []LinkID
	// Links lists every physical link.
	Links() []LinkSpec
}

// mulAdd returns a*b + c for a, b > 0 and c >= 0, with ok false when the
// result overflows int. Constructors use it to reject NPU and node counts
// an int cannot hold before they allocate anything for them.
func mulAdd(a, b, c int) (n int, ok bool) {
	if a > (math.MaxInt-c)/b {
		return 0, false
	}
	return a*b + c, true
}

// errTooLarge names a topology whose NPU or node count overflows int.
func errTooLarge(name string) error {
	return fmt.Errorf("topology: %s has more nodes than an int can count", name)
}

// ringDirection returns base nodes in ascending (even channel) or
// descending (odd channel) order, implementing "each bidirectional ring is
// divided into two unidirectional rings" and alternating unidirectional
// local rings.
func ringDirection(base []Node, channel int) []Node {
	if channel%2 == 0 {
		out := make([]Node, len(base))
		copy(out, base)
		return out
	}
	out := make([]Node, len(base))
	for i, n := range base {
		out[len(base)-1-i] = n
	}
	return out
}
