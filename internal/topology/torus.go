package topology

import (
	"fmt"
	"strings"
)

// TorusConfig sets the ring multiplicities. LocalRings counts
// unidirectional rings; HorizontalRings and VerticalRings count
// bidirectional rings (each contributing two unidirectional channels).
type TorusConfig struct {
	LocalRings      int
	HorizontalRings int
	VerticalRings   int
}

// DefaultTorusConfig matches Table IV: 2 unidirectional local rings and 2
// bidirectional rings per inter-package dimension.
func DefaultTorusConfig() TorusConfig {
	return TorusConfig{LocalRings: 2, HorizontalRings: 2, VerticalRings: 2}
}

// NewTorus builds the MxNxK hierarchical torus of Fig. 3a (local x
// horizontal x vertical): M NPUs per package connected by unidirectional
// intra-package rings, and N (horizontal) x K (vertical) packages
// connected by bidirectional inter-package rings, each split into two
// unidirectional rings. It is the all-ring composition of the local,
// vertical and horizontal dimensions, in the paper's phase order.
//
// Node numbering: package p = row*N + col (row in [0,K), col in [0,N));
// NPU id = p*M + l for local index l in [0,M). Links are created local
// rings first (package order), then vertical rings (ordered by local
// index, then column), then horizontal rings (local index, then row).
func NewTorus(local, horizontal, vertical int, cfg TorusConfig) (*Hierarchical, error) {
	if local <= 0 || horizontal <= 0 || vertical <= 0 {
		return nil, fmt.Errorf("topology: invalid torus size %dx%dx%d", local, horizontal, vertical)
	}
	if cfg.LocalRings <= 0 || cfg.HorizontalRings <= 0 || cfg.VerticalRings <= 0 {
		return nil, fmt.Errorf("topology: ring counts must be positive, got %+v", cfg)
	}
	return newHierarchical([]DimSpec{
		{Kind: KindRing, Size: local, Lanes: cfg.LocalRings, Class: IntraPackage},
		{Kind: KindRing, Size: vertical, Lanes: cfg.VerticalRings, Class: InterPackage},
		{Kind: KindRing, Size: horizontal, Lanes: cfg.HorizontalRings, Class: InterPackage},
	}, fmt.Sprintf("%dx%dx%d torus", local, horizontal, vertical), true)
}

// NewTorusND builds a hierarchical torus with the given axis sizes
// ([local, A1, A2, ...]; at least two axes) — the 4D/5D scale-up
// topologies the paper names as future work (§III-C) — as an all-ring
// Hierarchical composition. Axis 0 is the local (intra-package)
// dimension of unidirectional rings; every further axis is an
// inter-package dimension of bidirectional rings (each split into two
// unidirectional channels), connecting NPUs with the same local index
// across packages. rings[0] counts local rings and rings[i>0] the
// bidirectional rings of axis i; missing entries default to 2.
//
// Node numbering: with axis sizes [M, A1, A2, ..., Ad], the package index
// is mixed-radix over (A1..Ad) with A1 fastest, and NPU id = pkg*M + l.
// Hierarchical collectives phase through the axes in declaration order
// (local, then A1, A2, ...), so NewTorusND([m, k, n]) behaves like the 3D
// NewTorus(m, n, k) whose phase order is local, vertical (k), horizontal
// (n); only the NPU numbering and link order differ.
func NewTorusND(sizes, rings []int) (*Hierarchical, error) {
	if len(sizes) < 2 {
		return nil, fmt.Errorf("topology: an N-D torus needs >= 2 axes, got %v", sizes)
	}
	specs := make([]DimSpec, len(sizes))
	parts := make([]string, len(sizes))
	for i, s := range sizes {
		if s <= 0 {
			return nil, fmt.Errorf("topology: invalid torus sizes %v", sizes)
		}
		lanes := 2
		if i < len(rings) {
			lanes = rings[i]
		}
		if lanes <= 0 {
			return nil, fmt.Errorf("topology: ring count for axis %d must be positive", i)
		}
		class := InterPackage
		if i == 0 {
			class = IntraPackage
		}
		specs[i] = DimSpec{Kind: KindRing, Size: s, Lanes: lanes, Class: class}
		parts[i] = fmt.Sprint(s)
	}
	return newHierarchical(specs, strings.Join(parts, "x")+" torus", false)
}
