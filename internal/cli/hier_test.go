package cli

import (
	"strings"
	"testing"

	"astrasim/internal/config"
	"astrasim/internal/topology"
)

func TestParseHierSpec(t *testing.T) {
	opts := DefaultTopologyOptions()
	cases := []struct {
		spec string
		want []topology.DimSpec
	}{
		// Defaults: dimension 0 is intra-package with opts.LocalRings
		// lanes; later ring dims get 2 bidirectional rings, switch dims
		// opts.GlobalSwitches, FC dims 1 lane — all inter-package.
		{"sw8,fc4,ring32", []topology.DimSpec{
			{Kind: topology.KindSwitch, Size: 8, Lanes: 2, Class: topology.IntraPackage},
			{Kind: topology.KindFullyConnected, Size: 4, Lanes: 1, Class: topology.InterPackage},
			{Kind: topology.KindRing, Size: 32, Lanes: 2, Class: topology.InterPackage},
		}},
		{"ring4", []topology.DimSpec{
			{Kind: topology.KindRing, Size: 4, Lanes: 2, Class: topology.IntraPackage},
		}},
		// Explicit lanes and classes override every default.
		{"ring2x3@pkg,sw4x1@so", []topology.DimSpec{
			{Kind: topology.KindRing, Size: 2, Lanes: 3, Class: topology.InterPackage},
			{Kind: topology.KindSwitch, Size: 4, Lanes: 1, Class: topology.ScaleOutLink},
		}},
		// Whitespace around dimension tokens is tolerated.
		{" ring2 , fc3@local ", []topology.DimSpec{
			{Kind: topology.KindRing, Size: 2, Lanes: 2, Class: topology.IntraPackage},
			{Kind: topology.KindFullyConnected, Size: 3, Lanes: 1, Class: topology.IntraPackage},
		}},
	}
	for _, tc := range cases {
		got, err := ParseHierSpec(tc.spec, opts)
		if err != nil {
			t.Errorf("ParseHierSpec(%q): %v", tc.spec, err)
			continue
		}
		if len(got) != len(tc.want) {
			t.Errorf("ParseHierSpec(%q) = %v, want %v", tc.spec, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("ParseHierSpec(%q) dim %d = %+v, want %+v", tc.spec, i, got[i], tc.want[i])
			}
		}
	}
}

// Malformed hier: specs must be rejected with an error that names the
// offending token, so a typo in a 5-dimension composition is findable.
func TestParseHierSpecErrors(t *testing.T) {
	cases := []struct {
		spec  string
		token string // the offending token the error must name
	}{
		{"", "at least one dimension"},
		{"   ", "at least one dimension"},
		{"ring2,,sw4", "dimension 2 is empty"},
		{"mesh4", `"mesh4"`},
		{"torus2x2", `"torus2x2"`},
		{"ring", `bad size ""`},
		{"ring0", `bad size "0"`},
		{"sw-2", `bad size "-2"`},
		{"fc2.5", `bad size "2.5"`},
		{"ring2x0", `bad lane count "0"`},
		{"sw8xx2", `bad lane count "x2"`},
		{"ring4x", `bad lane count ""`},
		{"sw8@fabric", `bad link class "fabric"`},
		{"ring2@", `bad link class ""`},
		{"ring2,sw4@LOCAL", `bad link class "LOCAL"`},
	}
	for _, tc := range cases {
		_, err := ParseHierSpec(tc.spec, DefaultTopologyOptions())
		if err == nil {
			t.Errorf("ParseHierSpec(%q): accepted", tc.spec)
			continue
		}
		if !strings.Contains(err.Error(), tc.token) {
			t.Errorf("ParseHierSpec(%q) error %q does not name %q", tc.spec, err, tc.token)
		}
	}
}

func TestParseRemoteMem(t *testing.T) {
	cases := []struct {
		in  string
		bw  float64
		lat uint64
	}{
		{"bw=50", 50, 0},
		{"bw=50,lat=600", 50, 600},
		{"lat=600,bw=0.5", 0.5, 600},
		{" bw=2.5 , lat=10 ", 2.5, 10},
	}
	for _, tc := range cases {
		bw, lat, err := ParseRemoteMem(tc.in)
		if err != nil || bw != tc.bw || lat != tc.lat {
			t.Errorf("ParseRemoteMem(%q) = %v, %v, %v; want %v, %v", tc.in, bw, lat, err, tc.bw, tc.lat)
		}
	}
}

func TestParseRemoteMemErrors(t *testing.T) {
	cases := []struct {
		in    string
		token string
	}{
		{"", `entry ""`},
		{"bw", `entry "bw"`},
		{"50", `entry "50"`},
		{"bw=0", `bad bandwidth "0"`},
		{"bw=-3", `bad bandwidth "-3"`},
		{"bw=fast", `bad bandwidth "fast"`},
		{"bw=5,lat=-1", `bad latency "-1"`},
		{"bw=5,lat=1.5", `bad latency "1.5"`},
		{"speed=9", `unknown key "speed"`},
		{"lat=600", "missing required bw"},
	}
	for _, tc := range cases {
		_, _, err := ParseRemoteMem(tc.in)
		if err == nil {
			t.Errorf("ParseRemoteMem(%q): accepted", tc.in)
			continue
		}
		if !strings.Contains(err.Error(), tc.token) {
			t.Errorf("ParseRemoteMem(%q) error %q does not name %q", tc.in, err, tc.token)
		}
	}
}

// BuildTopology("hier:...") must hand back the composition and name a bad
// dimension token.
func TestBuildTopologyHier(t *testing.T) {
	cfg := config.DefaultSystem()
	topo, err := BuildTopology("hier:sw4,fc2,ring3", DefaultTopologyOptions(), &cfg)
	if err != nil {
		t.Fatal(err)
	}
	h, ok := topo.(*topology.Hierarchical)
	if !ok {
		t.Fatalf("BuildTopology returned %T, want *topology.Hierarchical", topo)
	}
	if h.NumNPUs() != 24 {
		t.Fatalf("NumNPUs = %d, want 24", h.NumNPUs())
	}
	if _, err := BuildTopology("hier:ring2,spine4", DefaultTopologyOptions(), &cfg); err == nil ||
		!strings.Contains(err.Error(), `"spine4"`) {
		t.Fatalf("bad dimension not named: %v", err)
	}
}
