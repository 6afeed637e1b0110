package modelgen

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"astrasim/internal/audit"
	"astrasim/internal/config"
	"astrasim/internal/graph"
	"astrasim/internal/system"
	"astrasim/internal/topology"
	"astrasim/internal/workload"
)

func TestParseSpecErrorsNameFields(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{`{`, "parsing model spec"},
		{`{"version":1,"name":"x","batch":4,"bogus":1}`, "bogus"},
		{`{"version":2,"name":"x","batch":4,"layers":[{"name":"l","param_bytes":1,"act_bytes":1}]}`, "version"},
		{`{"version":1,"batch":4,"layers":[{"name":"l","param_bytes":1,"act_bytes":1}]}`, "name"},
		{`{"version":1,"name":"x","layers":[{"name":"l","param_bytes":1,"act_bytes":1}]}`, "batch"},
		{`{"version":1,"name":"x","batch":4}`, "exactly one of transformer, layers"},
		{`{"version":1,"name":"x","batch":4,"transformer":{"layers":2,"hidden":0,"heads":2,"seq":8},"layers":[]}`, "transformer.hidden"},
		{`{"version":1,"name":"x","batch":4,"transformer":{"layers":2,"hidden":8,"heads":3,"seq":8}}`, "transformer.heads"},
		{`{"version":1,"name":"x","batch":4,"transformer":{"layers":2,"hidden":8,"heads":2,"seq":0}}`, "transformer.seq"},
		{`{"version":1,"name":"x","batch":4,"transformer":{"layers":2,"hidden":8,"heads":2,"seq":8,"moe":{"experts":1}}}`, "transformer.moe.experts"},
		{`{"version":1,"name":"x","batch":4,"transformer":{"layers":2,"hidden":8,"heads":2,"seq":8,"moe":{"experts":4,"every":9}}}`, "transformer.moe.every"},
		{`{"version":1,"name":"x","batch":4,"layers":[{"param_bytes":1,"act_bytes":1}]}`, "layers[0].name"},
		{`{"version":1,"name":"x","batch":4,"layers":[{"name":"l","param_bytes":-1,"act_bytes":1}]}`, "layers[0].param_bytes"},
		{`{"version":1,"name":"x","batch":4,"layers":[{"name":"l","param_bytes":1,"act_bytes":1},{"name":"l","param_bytes":1,"act_bytes":1}]}`, "duplicates"},
		{`{"version":1,"name":"x","batch":4,"layers":[{"name":"l","param_bytes":1,"act_bytes":1,"experts":1}]}`, "layers[0].experts"},
	}
	for _, tc := range cases {
		_, err := ParseSpec("test", strings.NewReader(tc.src))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ParseSpec(%s) = %v, want error containing %q", tc.src, err, tc.want)
		}
	}
}

func TestParsePlanErrorsNameFields(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{`{"version":1,"name":"p","dp":2,"nope":1}`, "nope"},
		{`{"version":0,"name":"p"}`, "version"},
		{`{"version":1}`, "name"},
		{`{"version":1,"name":"p","dp":-2}`, "dp"},
		{`{"version":1,"name":"p","tp":-1}`, "tp"},
		{`{"version":1,"name":"p","zero_stage":4}`, "zero_stage"},
		{`{"version":1,"name":"p","zero_stage":2}`, "needs dp > 1"},
		{`{"version":1,"name":"p","capacity_factor":-0.5}`, "capacity_factor"},
		{`{"version":1,"name":"p","interleave":2}`, "interleave 2 requires pp > 1"},
		{`{"version":1,"name":"p","pp":2,"interleave":2,"microbatches":3}`, "microbatches"},
		{`{"version":1,"name":"p","dp_scope":"sideways"}`, "dp_scope"},
		{`{"version":1,"name":"p","optimizer_placement":"orbit"}`, "optimizer_placement"},
		{`{"version":1,"name":"p","expert_permutation":[0,2]}`, "expert_permutation[1]"},
		{`{"version":1,"name":"p","expert_permutation":[0,0]}`, "expert_permutation[1]"},
	}
	for _, tc := range cases {
		_, err := ParsePlan("test", strings.NewReader(tc.src))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ParsePlan(%s) = %v, want error containing %q", tc.src, err, tc.want)
		}
	}
}

func TestCompileErrorsNameFields(t *testing.T) {
	cases := []struct {
		spec *Spec
		plan *Plan
		want string
	}{
		{denseSpec(), &Plan{Version: 1, Name: "p", Microbatches: 3}, "microbatches (3) must divide batch (8)"},
		{denseSpec(), &Plan{Version: 1, Name: "p", PP: 18}, "virtual stages exceed"},
		{denseSpec(), &Plan{Version: 1, Name: "p", EP: 4}, "needs an expert-routed model layer"},
		{moeSpec(), &Plan{Version: 1, Name: "p", EP: 3}, "must divide layer"},
		{moeSpec(), &Plan{Version: 1, Name: "p", EP: 2, ExpertPermutation: []int{1, 0}}, "expert_permutation length"},
		{moeSpec(), &Plan{Version: 1, Name: "p", EP: 8, CapacityFactor: 1e-9}, "capacity_factor"},
	}
	for _, tc := range cases {
		_, err := Compile(tc.spec, tc.plan, Options{})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Compile(%s, %s) = %v, want error containing %q", tc.spec.Name, tc.plan.Name, err, tc.want)
		}
	}
}

// TestCompileDeterministic: same inputs, byte-identical graphs.
func TestCompileDeterministic(t *testing.T) {
	plan := &Plan{Version: 1, Name: "d", DP: 2, TP: 2, PP: 2, Microbatches: 4, ZeROStage: 3, Interleave: 2}
	var prev []byte
	for i := 0; i < 3; i++ {
		g, err := Compile(denseSpec(), plan, Options{Steps: 2})
		if err != nil {
			t.Fatal(err)
		}
		out, err := json.Marshal(g)
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil && !bytes.Equal(prev, out) {
			t.Fatal("Compile is not deterministic across calls")
		}
		prev = out
	}
}

// TestCompileScheduleGrid compiles a (pp, interleave, microbatches)
// grid: every generated DAG must validate (acyclic — i.e. the
// interleaved schedule cannot deadlock) for dense and MoE models.
func TestCompileScheduleGrid(t *testing.T) {
	grid := []struct{ pp, v, mb int }{
		{1, 1, 1}, {1, 1, 4}, {2, 1, 2}, {2, 1, 8}, {2, 2, 2}, {2, 2, 4},
		{4, 1, 4}, {4, 2, 4}, {4, 2, 8}, {2, 4, 4},
	}
	for _, spec := range []*Spec{denseSpec(), moeSpec()} {
		for _, tc := range grid {
			if len(spec.expand()) < tc.pp*tc.v {
				continue
			}
			plan := &Plan{Version: 1, Name: "grid", DP: 2, EP: 2, ZeROStage: 3,
				PP: tc.pp, Interleave: tc.v, Microbatches: tc.mb}
			if spec.maxExperts() == 0 {
				plan.EP = 1
			}
			if _, err := Compile(spec, plan, Options{}); err != nil {
				t.Errorf("%s pp=%d v=%d mb=%d: %v", spec.Name, tc.pp, tc.v, tc.mb, err)
			}
		}
	}
}

// replay runs a compiled graph on a 2x2x2 torus with the audit layer
// attached and returns the result.
func replay(t *testing.T, g *graph.Graph, backend config.Backend) workload.Result {
	t.Helper()
	tp, err := topology.NewTorus(2, 2, 2, topology.DefaultTorusConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.DefaultSystem()
	cfg.Backend = backend
	inst, err := system.NewInstance(tp, cfg, config.DefaultNetwork())
	if err != nil {
		t.Fatal(err)
	}
	aud := audit.Attach(inst.Sys, inst.Net)
	res, err := graph.Run(inst, g)
	if err != nil {
		t.Fatal(err)
	}
	if err := aud.Report().Err(); err != nil {
		t.Fatalf("audit violation: %v", err)
	}
	return res
}

// TestCompiledGraphReplays drives generated graphs through the
// unchanged engine/audit machinery on both network backends.
func TestCompiledGraphReplays(t *testing.T) {
	plans := []*Plan{
		{Version: 1, Name: "dp8-zero3", DP: 8, ZeROStage: 3, DPScope: ""},
		{Version: 1, Name: "tp2-pp2", TP: 2, PP: 2, Microbatches: 4, TPScope: "local"},
		{Version: 1, Name: "pp2-v2", PP: 2, Interleave: 2, Microbatches: 4},
	}
	for _, plan := range plans {
		g, err := Compile(denseSpec(), plan, Options{})
		if err != nil {
			t.Fatal(err)
		}
		packet := replay(t, g, config.PacketBackend)
		fast := replay(t, g, config.FastBackend)
		if packet.TotalCycles == 0 || fast.TotalCycles == 0 {
			t.Errorf("%s: zero-cycle replay (packet %d, fast %d)", plan.Name, packet.TotalCycles, fast.TotalCycles)
		}
		if packet.TotalCompute() != fast.TotalCompute() {
			t.Errorf("%s: compute accounting differs across backends: %d vs %d",
				plan.Name, packet.TotalCompute(), fast.TotalCompute())
		}
	}
	moe, err := Compile(moeSpec(), &Plan{Version: 1, Name: "ep4", EP: 4, Microbatches: 2, EPScope: "local+horizontal"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	replay(t, moe, config.PacketBackend)
}

// TestOptimizerPlacementCycleIdentity: without a remote-memory pool, a
// plan placing optimizer state remote must replay cycle-identical to
// the local-placement plan (satellite: PR-9 composition).
func TestOptimizerPlacementCycleIdentity(t *testing.T) {
	mk := func(placement string) workload.Result {
		plan := &Plan{Version: 1, Name: "place", DP: 4, ZeROStage: 3, UpdatePerKB: 2,
			OptimizerPlacement: placement}
		g, err := Compile(denseSpec(), plan, Options{Steps: 2})
		if err != nil {
			t.Fatal(err)
		}
		return replay(t, g, config.PacketBackend)
	}
	local, remote := mk(""), mk("remote")
	if local.TotalCycles != remote.TotalCycles {
		t.Errorf("no pool configured: remote placement changed cycles %d -> %d",
			local.TotalCycles, remote.TotalCycles)
	}
}

// TestPlacementLandsOnZeroNodes: the plan's optimizer placement must
// reach every ZeRO COMM node and only those.
func TestPlacementLandsOnZeroNodes(t *testing.T) {
	plan := &Plan{Version: 1, Name: "place", DP: 2, TP: 2, ZeROStage: 3, OptimizerPlacement: "remote"}
	g, err := Compile(denseSpec(), plan, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range g.Nodes {
		if n.Kind != graph.KindComm {
			continue
		}
		want := ""
		if n.Tag == "zero" {
			want = "remote"
		}
		if n.Placement != want {
			t.Fatalf("node %s (tag %s): placement %q, want %q", n.ID, n.Tag, n.Placement, want)
		}
	}
}

// TestExpertPermutationVolumeInvariance: relabeling experts cannot
// change any communication volume (the algebra is label-free).
func TestExpertPermutationVolumeInvariance(t *testing.T) {
	base := &Plan{Version: 1, Name: "perm", EP: 4, Microbatches: 2, CapacityFactor: 1.25}
	rot := *base
	rot.ExpertPermutation = []int{3, 4, 5, 6, 7, 0, 1, 2}
	v0, err := PlanVolumes(moeSpec(), base)
	if err != nil {
		t.Fatal(err)
	}
	v1, err := PlanVolumes(moeSpec(), &rot)
	if err != nil {
		t.Fatal(err)
	}
	if v0 != v1 {
		t.Errorf("expert permutation changed volumes:\n%+v\n%+v", v0, v1)
	}
}
