package cli

import (
	"testing"

	"astrasim/internal/config"
)

func TestParseSize(t *testing.T) {
	cases := map[string]int64{
		"512":   512,
		"512B":  512,
		"64KB":  64 << 10,
		"4MB":   4 << 20,
		"1GB":   1 << 30,
		" 2MB ": 2 << 20,
	}
	for in, want := range cases {
		got, err := ParseSize(in)
		if err != nil || got != want {
			t.Errorf("ParseSize(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "-4MB", "x", "0", "4TB?"} {
		if _, err := ParseSize(bad); err == nil {
			t.Errorf("ParseSize(%q): expected error", bad)
		}
	}
}

func TestParseDims(t *testing.T) {
	d, err := ParseDims("2x4x4")
	if err != nil || len(d) != 3 || d[0] != 2 || d[1] != 4 || d[2] != 4 {
		t.Errorf("ParseDims = %v, %v", d, err)
	}
	if _, err := ParseDims("2x0x4"); err == nil {
		t.Error("expected error for zero dimension")
	}
	if _, err := ParseDims("2xx4"); err == nil {
		t.Error("expected error for empty dimension")
	}
}

func TestBuildTopologyTorus(t *testing.T) {
	cfg := config.DefaultSystem()
	topo, err := BuildTopology("2x4x4", DefaultTopologyOptions(), &cfg)
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumNPUs() != 32 || topo.Name() != "2x4x4 torus" {
		t.Errorf("topo = %s (%d NPUs)", topo.Name(), topo.NumNPUs())
	}
	if cfg != config.DefaultSystem() {
		t.Errorf("BuildTopology wrote the system config: %+v", cfg)
	}
}

func TestBuildTopologyA2A(t *testing.T) {
	cfg := config.DefaultSystem()
	opts := DefaultTopologyOptions()
	opts.GlobalSwitches = 7
	topo, err := BuildTopology("a2a:1x8", opts, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumNPUs() != 8 || topo.Name() != "1x8 alltoall" || topo.Dims()[1].Channels != 7 {
		t.Errorf("topo = %s, dims %+v", topo.Name(), topo.Dims())
	}
}

func TestBuildTopologyND(t *testing.T) {
	cfg := config.DefaultSystem()
	topo, err := BuildTopology("2x2x2x2", DefaultTopologyOptions(), &cfg)
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumNPUs() != 16 || topo.Name() != "2x2x2x2 torus" {
		t.Errorf("topo = %s (%d NPUs)", topo.Name(), topo.NumNPUs())
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("ND config invalid: %v", err)
	}
	// 2D spec (local x one axis) also goes through TorusND.
	topo, err = BuildTopology("4x16", DefaultTopologyOptions(), &cfg)
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumNPUs() != 64 {
		t.Errorf("4x16 NPUs = %d, want 64", topo.NumNPUs())
	}
}

func TestBuildTopologyErrors(t *testing.T) {
	cfg := config.DefaultSystem()
	for _, bad := range []string{"", "4", "a2a:4", "a2a:2x3x4", "axb"} {
		if _, err := BuildTopology(bad, DefaultTopologyOptions(), &cfg); err == nil {
			t.Errorf("BuildTopology(%q): expected error", bad)
		}
	}
}

func TestBuildTopologyScaleOut(t *testing.T) {
	cfg := config.DefaultSystem()
	topo, err := BuildTopology("so:2x2x2/4", DefaultTopologyOptions(), &cfg)
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumNPUs() != 32 {
		t.Errorf("NumNPUs = %d, want 32", topo.NumNPUs())
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("config invalid: %v", err)
	}
	for _, bad := range []string{"so:2x2x2", "so:2x2/4", "so:2x2x2/1", "so:2x2x2/x"} {
		if _, err := BuildTopology(bad, DefaultTopologyOptions(), &cfg); err == nil {
			t.Errorf("BuildTopology(%q): expected error", bad)
		}
	}
}

func TestBuildTopologySwitched(t *testing.T) {
	cfg := config.DefaultSystem()
	topo, err := BuildTopology("sw:4x4", DefaultTopologyOptions(), &cfg)
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumNPUs() != 16 {
		t.Errorf("NumNPUs = %d, want 16", topo.NumNPUs())
	}
	if _, err := BuildTopology("sw:4x4x4", DefaultTopologyOptions(), &cfg); err == nil {
		t.Error("expected error for 3-dim switched spec")
	}
}
