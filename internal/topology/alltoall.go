package topology

import "fmt"

// A2A is the hierarchical alltoall topology of Fig. 3b: an MxN system with
// M NPUs per package connected by unidirectional local rings, and N
// packages connected all-to-all through a set of global switches. Every
// NPU has one inter-package link to every global switch (up and down).
//
// NPU ids are p*M + l as in the torus; switch s has node id NumNPUs + s.
type A2A struct {
	local, packages, switches int
	localCh                   int

	links      []LinkSpec
	localRings [][]*Ring // [package][channel]
	// up[i][s] is the link NPU i -> switch s; down[i][s] the reverse.
	up, down [][]LinkID
}

// A2AConfig sets the local-ring and switch multiplicities.
type A2AConfig struct {
	LocalRings     int
	GlobalSwitches int
}

// DefaultA2AConfig matches Fig. 3b's two global switches and Table IV's
// two local rings.
func DefaultA2AConfig() A2AConfig { return A2AConfig{LocalRings: 2, GlobalSwitches: 2} }

// NewA2A builds an MxN hierarchical alltoall topology.
func NewA2A(local, packages int, cfg A2AConfig) (*A2A, error) {
	if local <= 0 || packages <= 0 {
		return nil, fmt.Errorf("topology: invalid alltoall size %dx%d", local, packages)
	}
	if cfg.LocalRings <= 0 || cfg.GlobalSwitches <= 0 {
		return nil, fmt.Errorf("topology: ring/switch counts must be positive, got %+v", cfg)
	}
	a := &A2A{
		local:    local,
		packages: packages,
		switches: cfg.GlobalSwitches,
		localCh:  cfg.LocalRings,
	}
	if _, ok := mulAdd(local, packages, cfg.GlobalSwitches); !ok {
		return nil, errTooLarge(a.Name())
	}
	a.build()
	return a, nil
}

func (a *A2A) addLink(src, dst Node, class LinkClass) LinkID {
	id := LinkID(len(a.links))
	a.links = append(a.links, LinkSpec{ID: id, Src: src, Dst: dst, Class: class})
	return id
}

func (a *A2A) build() {
	M, N := a.local, a.packages
	// Local rings, identical to the torus local dimension.
	a.localRings = make([][]*Ring, N)
	for p := 0; p < N; p++ {
		base := make([]Node, M)
		for l := 0; l < M; l++ {
			base[l] = Node(p*M + l)
		}
		a.localRings[p] = make([]*Ring, a.localCh)
		for c := 0; c < a.localCh; c++ {
			nodes := ringDirection(base, c)
			r := &Ring{Dim: DimLocal, Channel: c, Nodes: nodes}
			if len(nodes) > 1 {
				r.Links = make([]LinkID, len(nodes))
				for i := range nodes {
					r.Links[i] = a.addLink(nodes[i], nodes[(i+1)%len(nodes)], IntraPackage)
				}
			}
			a.localRings[p][c] = r
		}
	}
	// Switch links: every NPU connects to every switch.
	n := a.NumNPUs()
	a.up = make([][]LinkID, n)
	a.down = make([][]LinkID, n)
	for i := 0; i < n; i++ {
		a.up[i] = make([]LinkID, a.switches)
		a.down[i] = make([]LinkID, a.switches)
		for s := 0; s < a.switches; s++ {
			sw := Node(n + s)
			a.up[i][s] = a.addLink(Node(i), sw, InterPackage)
			a.down[i][s] = a.addLink(sw, Node(i), InterPackage)
		}
	}
}

// Name implements Topology.
func (a *A2A) Name() string {
	return fmt.Sprintf("%dx%d alltoall", a.local, a.packages)
}

// NumNPUs implements Topology.
func (a *A2A) NumNPUs() int { return a.local * a.packages }

// NumNodes implements Topology (NPUs plus global switches).
func (a *A2A) NumNodes() int { return a.NumNPUs() + a.switches }

// Dims implements Topology: local first, then the direct package
// dimension. The package dimension's channel count is the switch count
// (paper §IV-B: "the number of global switches determine the number of
// LSQs for the alltoall dimension").
func (a *A2A) Dims() []DimInfo {
	return []DimInfo{
		{Dim: DimLocal, Size: a.local, Channels: a.localCh},
		{Dim: DimPackage, Size: a.packages, Channels: a.switches, Direct: true},
	}
}

func (a *A2A) coords(n Node) (l, p int) {
	if n < 0 || int(n) >= a.NumNPUs() {
		panic(fmt.Sprintf("topology: node %d out of range for %s", n, a.Name()))
	}
	return int(n) % a.local, int(n) / a.local
}

// Group implements Topology. The package-dimension group of n contains the
// NPUs with the same local index in every package, ordered by package.
func (a *A2A) Group(d Dim, n Node) []Node {
	l, p := a.coords(n)
	switch d {
	case DimLocal:
		return a.localRings[p][0].Nodes
	case DimPackage:
		g := make([]Node, a.packages)
		for q := 0; q < a.packages; q++ {
			g[q] = Node(q*a.local + l)
		}
		return g
	}
	panic(fmt.Sprintf("topology: alltoall has no dimension %v", d))
}

// RingOf implements Topology; only the local dimension has rings.
func (a *A2A) RingOf(d Dim, n Node, channel int) *Ring {
	if d != DimLocal {
		panic(fmt.Sprintf("topology: dimension %v of alltoall is direct, not a ring", d))
	}
	_, p := a.coords(n)
	rings := a.localRings[p]
	return rings[channel%len(rings)]
}

// SwitchFor returns which global switch the (src, dst) package pair uses on
// the given channel. Pairs are spread over switches with a round-robin
// tournament matching so that, when there are at least N-1 switches (as in
// the paper's 1x8 study with 7 switches), a full direct exchange uses each
// NPU-to-switch link exactly once — "one link per peer NAM".
func (a *A2A) SwitchFor(channel int, srcPkg, dstPkg int) int {
	return (matchRound(srcPkg, dstPkg, a.packages) + channel) % a.switches
}

// PathLinks implements Topology. Package-dimension messages go NPU ->
// switch -> NPU; the channel offsets the pair-to-switch matching.
func (a *A2A) PathLinks(d Dim, channel int, src, dst Node) []LinkID {
	switch d {
	case DimLocal:
		r := a.RingOf(d, src, channel)
		if next := r.Next(src); next != dst {
			panic(fmt.Sprintf("topology: %d is not %d's successor on local ring %d", dst, src, channel))
		}
		return []LinkID{r.LinkFrom(src)}
	case DimPackage:
		sl, sp := a.coords(src)
		dl, dp := a.coords(dst)
		if sl != dl {
			panic(fmt.Sprintf("topology: %d and %d are not in the same package-dimension group", src, dst))
		}
		if sp == dp {
			panic(fmt.Sprintf("topology: %d -> %d is intra-package, not a package-dimension path", src, dst))
		}
		s := a.SwitchFor(channel, sp, dp)
		return []LinkID{a.up[src][s], a.down[dst][s]}
	}
	panic(fmt.Sprintf("topology: alltoall has no dimension %v", d))
}

// Links implements Topology.
func (a *A2A) Links() []LinkSpec { return a.links }

// matchRound returns the round-robin tournament round in which teams i and
// j meet, for n teams (i != j, both in [0, n)). For even n there are n-1
// rounds and each round is a perfect matching (the circle method); odd n is
// handled as n+1 with a bye.
func matchRound(i, j, n int) int {
	if n%2 == 1 {
		n++ // phantom team n-1 gives byes; real pairs keep distinct rounds
	}
	m := n - 1 // rounds
	switch {
	case i == n-1:
		return j % m
	case j == n-1:
		return i % m
	default:
		// In round r, pairs satisfy i + j = 2r (mod n-1).
		s := (i + j) % m
		// Solve 2r = s (mod m) for odd m: r = s * (m+1)/2 (mod m).
		return s * ((m + 1) / 2) % m
	}
}

var _ Topology = (*A2A)(nil)
