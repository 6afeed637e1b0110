package config

import "testing"

// Table IV values must be the defaults.
func TestDefaultsMatchTableIV(t *testing.T) {
	n := DefaultNetwork()
	if n.LocalLinkBandwidth != 200 || n.PackageLinkBandwidth != 25 {
		t.Errorf("bandwidths = %v/%v, want 200/25 GB/s", n.LocalLinkBandwidth, n.PackageLinkBandwidth)
	}
	if n.LocalLinkLatency != 90 || n.PackageLinkLatency != 200 {
		t.Errorf("latencies = %d/%d, want 90/200 cycles", n.LocalLinkLatency, n.PackageLinkLatency)
	}
	if n.LocalPacketSize != 512 || n.PackagePacketSize != 256 {
		t.Errorf("packet sizes = %d/%d, want 512/256", n.LocalPacketSize, n.PackagePacketSize)
	}
	if n.LocalLinkEfficiency != 0.94 || n.PackageLinkEfficiency != 0.94 {
		t.Errorf("efficiencies = %v/%v, want 0.94", n.LocalLinkEfficiency, n.PackageLinkEfficiency)
	}
	if n.FlitWidthBits != 1024 || n.RouterLatency != 1 || n.VCsPerVNet != 50 || n.BuffersPerVC != 5000 {
		t.Errorf("flit/router/vc/buffers = %d/%d/%d/%d", n.FlitWidthBits, n.RouterLatency, n.VCsPerVNet, n.BuffersPerVC)
	}
	s := DefaultSystem()
	if s.EndpointDelay != 10 {
		t.Errorf("endpoint delay = %d, want 10", s.EndpointDelay)
	}
	if s.SchedulingPolicy != LIFO {
		t.Errorf("default policy = %v, want LIFO", s.SchedulingPolicy)
	}
	if s.IssueThreshold != 8 || s.IssueBatch != 16 {
		t.Errorf("dispatcher T/P = %d/%d, want 8/16", s.IssueThreshold, s.IssueBatch)
	}
}

func TestValidation(t *testing.T) {
	good := Default()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := Default()
	bad.Network.LocalLinkEfficiency = 1.5
	if err := bad.Validate(); err == nil {
		t.Error("expected error for efficiency > 1")
	}
	bad = Default()
	bad.System.PreferredSetSplits = 0
	if err := bad.Validate(); err == nil {
		t.Error("expected error for zero set splits")
	}
	bad = Default()
	bad.Workload.NumPasses = 0
	if err := bad.Validate(); err == nil {
		t.Error("expected error for zero passes")
	}
}

func TestParsers(t *testing.T) {
	if p, err := ParseSchedulingPolicy("FIFO"); err != nil || p != FIFO {
		t.Errorf("ParseSchedulingPolicy(FIFO) = %v, %v", p, err)
	}
	if _, err := ParseSchedulingPolicy("random"); err == nil {
		t.Error("expected error for unknown policy")
	}
	if a, err := ParseAlgorithm("enhanced"); err != nil || a != Enhanced {
		t.Errorf("ParseAlgorithm(enhanced) = %v, %v", a, err)
	}
	if _, err := ParseAlgorithm("magic"); err == nil {
		t.Error("expected error for unknown algorithm")
	}
}

func TestStringers(t *testing.T) {
	cases := map[string]string{
		LIFO.String():                "LIFO",
		FIFO.String():                "FIFO",
		Baseline.String():            "baseline",
		Enhanced.String():            "enhanced",
		SoftwareRouting.String():     "software",
		HardwareRouting.String():     "hardware",
		NormalInjection.String():     "normal",
		AggressiveInjection.String(): "aggressive",
	}
	for got, want := range cases {
		if got != want {
			t.Errorf("stringer = %q, want %q", got, want)
		}
	}
}

func TestScaleOutDefaults(t *testing.T) {
	n := DefaultNetwork()
	if n.ScaleOutLinkBandwidth != 12.5 || n.ScaleOutLinkLatency != 2000 {
		t.Errorf("scale-out link = %v GB/s, %d cycles", n.ScaleOutLinkBandwidth, n.ScaleOutLinkLatency)
	}
	if n.ScaleOutPacketSize != 1500 {
		t.Errorf("MTU = %d, want 1500", n.ScaleOutPacketSize)
	}
	s := DefaultSystem()
	if s.TransportDelay != 500 {
		t.Errorf("transport delay = %d, want 500", s.TransportDelay)
	}
	bad := DefaultNetwork()
	bad.ScaleOutLinkEfficiency = 0
	if err := bad.Validate(); err == nil {
		t.Error("expected error for zero scale-out efficiency")
	}
	bad = DefaultNetwork()
	bad.ScaleOutPacketSize = -1
	if err := bad.Validate(); err == nil {
		t.Error("expected error for negative MTU")
	}
}

func TestPriorityPolicyParse(t *testing.T) {
	p, err := ParseSchedulingPolicy("PRIORITY")
	if err != nil || p != Priority {
		t.Errorf("ParseSchedulingPolicy(PRIORITY) = %v, %v", p, err)
	}
	if Priority.String() != "PRIORITY" {
		t.Errorf("Priority.String() = %q", Priority.String())
	}
}

func TestLSQWidthValidation(t *testing.T) {
	s := DefaultSystem()
	if s.LSQWidth != 2 {
		t.Errorf("default LSQ width = %d, want 2", s.LSQWidth)
	}
	s.LSQWidth = 0
	if err := s.Validate(); err == nil {
		t.Error("expected error for zero LSQ width")
	}
}
