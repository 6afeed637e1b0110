package faults

import (
	"strings"
	"testing"

	"astrasim/internal/audit"
	"astrasim/internal/collectives"
	"astrasim/internal/config"
	"astrasim/internal/eventq"
	"astrasim/internal/system"
	"astrasim/internal/topology"
)

// newInstance builds a small 2x2x2 torus instance for fault experiments.
func newInstance(t *testing.T) *system.Instance {
	t.Helper()
	tp, err := topology.NewTorus(2, 2, 2, topology.DefaultTorusConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.DefaultSystem()
	net := config.DefaultNetwork()
	net.MaxPacketsPerMessage = 16
	inst, err := system.NewInstance(tp, cfg, net)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// run applies the plan to a fresh instance, executes one all-reduce under
// audit, and returns the handle, the instance, and the audit report.
func run(t *testing.T, plan *Plan, bytes int64) (*system.Handle, *system.Instance, audit.Report) {
	t.Helper()
	inst := newInstance(t)
	aud := audit.Attach(inst.Sys, inst.Net)
	if err := Apply(plan, inst); err != nil {
		t.Fatal(err)
	}
	done := false
	h, err := inst.Sys.IssueCollective(collectives.AllReduce, bytes, "test", func(*system.Handle) { done = true })
	if err != nil {
		t.Fatal(err)
	}
	inst.Eng.Run()
	if !done {
		t.Fatalf("all-reduce did not complete (%d events fired)", inst.Eng.Fired())
	}
	return h, inst, aud.Report()
}

func TestValidateRejectsBadPlans(t *testing.T) {
	retry := &Retry{Timeout: 100, Backoff: 2, MaxRetries: 5}
	cases := []struct {
		name string
		plan Plan
		want string
	}{
		{"both selectors", Plan{Degrades: []Degrade{{
			LinkSet: LinkSet{Links: []int{1}, Class: "all"}, End: 10, BandwidthFactor: 0.5}}},
			"exactly one"},
		{"no selector", Plan{Outages: []Outage{{End: 10}}}, "exactly one"},
		{"bad class", Plan{Outages: []Outage{{LinkSet: LinkSet{Class: "bogus"}, End: 10}}},
			"unknown link class"},
		{"empty window", Plan{Degrades: []Degrade{{
			LinkSet: LinkSet{Class: "all"}, Start: 10, End: 10, BandwidthFactor: 0.5}}},
			"empty"},
		{"zero factor", Plan{Degrades: []Degrade{{
			LinkSet: LinkSet{Class: "all"}, End: 10}}},
			"bandwidth_factor"},
		{"negative straggler", Plan{Stragglers: []Straggler{{Node: 0, Factor: -1}}},
			"factor must be positive"},
		{"probability one", Plan{Retry: retry, Drops: []Drop{{
			LinkSet: LinkSet{Class: "all"}, Probability: 1}}},
			"probability"},
		{"drops without retry", Plan{Drops: []Drop{{
			LinkSet: LinkSet{Class: "all"}, Probability: 0.1}}},
			"retry"},
		{"zero timeout", Plan{Retry: &Retry{Backoff: 2}}, "timeout"},
		{"backoff below one", Plan{Retry: &Retry{Timeout: 10, Backoff: 0.5}}, "backoff"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.plan.Validate()
			if err == nil {
				t.Fatalf("Validate accepted bad plan %+v", c.plan)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}
	good := Plan{
		Seed:       7,
		Degrades:   []Degrade{{LinkSet: LinkSet{Class: "inter"}, Start: 0, End: 100, BandwidthFactor: 0.5}},
		Outages:    []Outage{{LinkSet: LinkSet{Links: []int{0, 1}}, Start: 5, End: 50}},
		Stragglers: []Straggler{{Node: 3, Factor: 2}},
		Drops:      []Drop{{LinkSet: LinkSet{Class: "all"}, Probability: 0.01}},
		Retry:      retry,
	}
	if err := good.Validate(); err != nil {
		t.Errorf("Validate rejected good plan: %v", err)
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	if _, err := Parse(strings.NewReader(`{"seed": 1, "dropz": []}`)); err == nil {
		t.Fatal("Parse accepted a plan with an unknown field")
	}
	p, err := Parse(strings.NewReader(`{
		"seed": 3,
		"drops": [{"class": "inter", "probability": 0.001}],
		"retry": {"timeout": 10000, "backoff": 2, "max_retries": 20}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 3 || len(p.Drops) != 1 || p.Retry == nil {
		t.Errorf("Parse mangled plan: %+v", p)
	}
}

func TestApplyIgnoresOutOfRangeSelectors(t *testing.T) {
	plan := &Plan{
		Degrades:   []Degrade{{LinkSet: LinkSet{Links: []int{99999}}, End: 100, BandwidthFactor: 0.5}},
		Stragglers: []Straggler{{Node: 99999, Factor: 4}},
	}
	h, _, rep := run(t, plan, 256<<10)
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	h2, _, rep2 := run(t, &Plan{}, 256<<10)
	if err := rep2.Err(); err != nil {
		t.Fatal(err)
	}
	if h.Duration() != h2.Duration() {
		t.Errorf("out-of-range selectors changed timing: %d vs fault-free %d", h.Duration(), h2.Duration())
	}
}

func TestDegradeSlowsRun(t *testing.T) {
	base, _, rep := run(t, &Plan{}, 1<<20)
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	slow, _, rep2 := run(t, &Plan{Degrades: []Degrade{{
		LinkSet: LinkSet{Class: "all"}, Start: 0, End: uint64(10 * base.Duration()), BandwidthFactor: 0.25,
	}}}, 1<<20)
	if err := rep2.Err(); err != nil {
		t.Fatal(err)
	}
	if slow.Duration() <= base.Duration() {
		t.Errorf("4x degraded run (%d cycles) not slower than fault-free (%d cycles)",
			slow.Duration(), base.Duration())
	}
}

func TestOutageDelaysRun(t *testing.T) {
	base, _, rep := run(t, &Plan{}, 1<<20)
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	outDur := base.Duration() / 2
	out, _, rep2 := run(t, &Plan{Outages: []Outage{{
		LinkSet: LinkSet{Class: "inter"}, Start: 0, End: uint64(outDur),
	}}}, 1<<20)
	if err := rep2.Err(); err != nil {
		t.Fatal(err)
	}
	if out.Duration() <= base.Duration() {
		t.Errorf("outage run (%d cycles) not slower than fault-free (%d cycles)",
			out.Duration(), base.Duration())
	}
	// The fabric was only unavailable for outDur cycles and everything
	// queued drains afterwards, so the inflation is bounded by the outage.
	if out.Duration() > base.Duration()+eventq.Time(outDur)+1 {
		t.Errorf("outage run %d cycles exceeds baseline %d + outage %d",
			out.Duration(), base.Duration(), outDur)
	}
}

func TestDropsRecoverAndConserve(t *testing.T) {
	plan := &Plan{
		Seed:  1,
		Drops: []Drop{{LinkSet: LinkSet{Class: "all"}, Probability: 0.01}},
		Retry: &Retry{Timeout: 5000, Backoff: 2, MaxRetries: 30},
	}
	h, inst, rep := run(t, plan, 1<<20)
	if err := rep.Err(); err != nil {
		t.Fatalf("audit violations under drops: %v", err)
	}
	ds := inst.Net.DropStats()
	if ds.DroppedPackets == 0 {
		t.Fatal("1% drop probability on all links dropped no packets")
	}
	if inst.Sys.Retransmits() == 0 || inst.Sys.RetransmittedBytes() == 0 {
		t.Fatalf("drops occurred (%d pkts) but no retransmits recorded", ds.DroppedPackets)
	}
	if rep.DroppedPackets != ds.DroppedPackets {
		t.Errorf("audit report drops = %d, network drops = %d", rep.DroppedPackets, ds.DroppedPackets)
	}
	if rep.RetransmittedBytes != inst.Sys.RetransmittedBytes() {
		t.Errorf("audit report retransmitted bytes = %d, system ledger = %d",
			rep.RetransmittedBytes, inst.Sys.RetransmittedBytes())
	}
	if h.Retransmits() == 0 {
		t.Error("collective handle recorded no retransmits")
	}
	base, _, _ := run(t, &Plan{}, 1<<20)
	if h.Duration() <= base.Duration() {
		t.Errorf("lossy run (%d cycles) not slower than fault-free (%d cycles)",
			h.Duration(), base.Duration())
	}
}

func TestDropDeterminismPerSeed(t *testing.T) {
	plan := func(seed uint64) *Plan {
		return &Plan{
			Seed:  seed,
			Drops: []Drop{{LinkSet: LinkSet{Class: "all"}, Probability: 0.005}},
			Retry: &Retry{Timeout: 5000, Backoff: 2, MaxRetries: 30},
		}
	}
	h1, i1, _ := run(t, plan(42), 1<<20)
	h2, i2, _ := run(t, plan(42), 1<<20)
	if h1.Duration() != h2.Duration() {
		t.Errorf("same plan+seed: durations differ, %d vs %d", h1.Duration(), h2.Duration())
	}
	if i1.Net.DropStats() != i2.Net.DropStats() {
		t.Errorf("same plan+seed: drop stats differ, %+v vs %+v", i1.Net.DropStats(), i2.Net.DropStats())
	}
	if i1.Sys.RetransmittedBytes() != i2.Sys.RetransmittedBytes() {
		t.Errorf("same plan+seed: retransmitted bytes differ, %d vs %d",
			i1.Sys.RetransmittedBytes(), i2.Sys.RetransmittedBytes())
	}
	h3, i3, _ := run(t, plan(43), 1<<20)
	if h3.Duration() == h1.Duration() && i3.Net.DropStats() == i1.Net.DropStats() {
		t.Errorf("different seeds produced identical runs (duration %d, %+v)",
			h3.Duration(), i3.Net.DropStats())
	}
}

func TestAttachAll(t *testing.T) {
	plan := &Plan{Stragglers: []Straggler{{Node: 0, Factor: 8}}}
	base := func() eventq.Time {
		tp, err := topology.NewTorus(2, 2, 2, topology.DefaultTorusConfig())
		if err != nil {
			t.Fatal(err)
		}
		cfg := config.DefaultSystem()
		net := config.DefaultNetwork()
		net.MaxPacketsPerMessage = 16
		h, err := system.RunCollective(tp, cfg, net, collectives.AllReduce, 256<<10)
		if err != nil {
			t.Fatal(err)
		}
		return h.Duration()
	}
	clean := base()
	restore, err := AttachAll(plan)
	if err != nil {
		t.Fatal(err)
	}
	faulted := base()
	restore()
	restored := base()
	if faulted <= clean {
		t.Errorf("AttachAll straggler run (%d cycles) not slower than clean (%d cycles)", faulted, clean)
	}
	if restored != clean {
		t.Errorf("after restore, run = %d cycles, want clean %d", restored, clean)
	}
}
