package topology

import (
	"fmt"
	"strings"
)

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
// (n).
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
	h, err := NewHierarchical(specs)
	if err != nil {
		return nil, err
	}
	h.name = strings.Join(parts, "x") + " torus"
	return h, nil
}
