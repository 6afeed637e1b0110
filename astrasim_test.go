package astrasim_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"astrasim"
)

func TestPlatformCollective(t *testing.T) {
	p, err := astrasim.NewTorusPlatform(2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumNPUs() != 8 {
		t.Errorf("NumNPUs = %d, want 8", p.NumNPUs())
	}
	res, err := p.RunCollective(astrasim.AllReduce, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if res.Duration() == 0 {
		t.Error("zero-duration collective")
	}
}

func TestPlatformOptions(t *testing.T) {
	base, err := astrasim.NewTorusPlatform(4, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	enh, err := astrasim.NewTorusPlatform(4, 4, 4, astrasim.WithAlgorithm(astrasim.Enhanced))
	if err != nil {
		t.Fatal(err)
	}
	hb, err := base.RunCollective(astrasim.AllReduce, 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	he, err := enh.RunCollective(astrasim.AllReduce, 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	if he.Duration() >= hb.Duration() {
		t.Errorf("enhanced (%d) should beat baseline (%d) on the asymmetric default fabric",
			he.Duration(), hb.Duration())
	}
	if hb.NumPhases() != 3 || he.NumPhases() != 4 {
		t.Errorf("phases = %d/%d, want 3 baseline, 4 enhanced", hb.NumPhases(), he.NumPhases())
	}
}

func TestPlatformSymmetricOption(t *testing.T) {
	sym, err := astrasim.NewTorusPlatform(2, 2, 2, astrasim.WithSymmetricLinks())
	if err != nil {
		t.Fatal(err)
	}
	asym, err := astrasim.NewTorusPlatform(2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	hs, err := sym.RunCollective(astrasim.AllReduce, 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	ha, err := asym.RunCollective(astrasim.AllReduce, 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	if ha.Duration() >= hs.Duration() {
		t.Errorf("asymmetric fast-local fabric (%d) should beat symmetric (%d)",
			ha.Duration(), hs.Duration())
	}
}

func TestPlatformAllToAll(t *testing.T) {
	p, err := astrasim.NewAllToAllPlatform(1, 8, astrasim.WithGlobalSwitches(7), astrasim.WithRings(1, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.RunCollective(astrasim.AllToAll, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if res.Duration() == 0 {
		t.Error("zero-duration all-to-all")
	}
}

func TestPlatformTrain(t *testing.T) {
	p, err := astrasim.NewTorusPlatform(2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	def := astrasim.DLRM(64)
	res, err := p.Train(def, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalCycles == 0 || len(res.Layers) != len(def.Layers) {
		t.Errorf("result = %d cycles, %d layers", res.TotalCycles, len(res.Layers))
	}
}

// A layer whose collective scope names a dimension the topology lacks
// fails the run with an error naming the layer and the scope; it must not
// panic. transformer.txt scopes its activation all-gathers to the
// vertical dimension, which a 2x2 all-to-all fabric does not have.
func TestTrainScopeMissingFromTopology(t *testing.T) {
	f, err := os.Open(filepath.Join("workloads", "transformer.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	def, err := astrasim.ParseWorkload("transformer.txt", f)
	if err != nil {
		t.Fatal(err)
	}
	p, err := astrasim.NewPlatformFromSpec("a2a:2x2")
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.Train(def, 1)
	if err == nil {
		t.Fatal("Train accepted a scope the topology lacks")
	}
	for _, want := range []string{"encoder1", "scope [vertical]"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
}

func TestWorkloadRoundTripViaFacade(t *testing.T) {
	def := astrasim.Transformer(8, 32)
	var buf bytes.Buffer
	if err := astrasim.WriteWorkload(&buf, def); err != nil {
		t.Fatal(err)
	}
	got, err := astrasim.ParseWorkload("transformer", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Layers) != len(def.Layers) {
		t.Errorf("layers = %d, want %d", len(got.Layers), len(def.Layers))
	}
}

func TestTorusNDAndScaleOutPlatforms(t *testing.T) {
	nd, err := astrasim.NewTorusNDPlatform([]int{2, 2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if nd.NumNPUs() != 16 {
		t.Errorf("4D platform NPUs = %d, want 16", nd.NumNPUs())
	}
	res, err := nd.RunCollective(astrasim.AllReduce, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if res.Duration() == 0 {
		t.Error("zero duration on 4D torus")
	}

	so, err := astrasim.NewScaleOutPlatform(2, 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	run, err := so.RunCollectiveDetailed(astrasim.AllReduce, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if run.ScaleOutBytes == 0 {
		t.Error("no scale-out traffic recorded")
	}
	if run.Energy.ScaleOut <= 0 {
		t.Error("no scale-out energy recorded")
	}
}

func TestMapOntoFacade(t *testing.T) {
	logical, err := astrasim.NewTorusPlatform(1, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	physical, err := astrasim.NewTorusPlatform(1, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := logical.MapOnto(physical, astrasim.IdentityMapping(64))
	if err != nil {
		t.Fatal(err)
	}
	res, err := mapped.RunCollective(astrasim.AllReduce, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if res.Duration() == 0 {
		t.Error("zero duration on mapped platform")
	}
}

func TestPlatformStragglerInjection(t *testing.T) {
	p, err := astrasim.NewTorusPlatform(1, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	nominal, err := p.RunCollective(astrasim.AllReduce, 256<<10)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.SetStraggler(3, 50); err != nil {
		t.Fatal(err)
	}
	slow, err := p.RunCollective(astrasim.AllReduce, 256<<10)
	if err != nil {
		t.Fatal(err)
	}
	if slow.Duration() <= nominal.Duration() {
		t.Errorf("straggler run %d not slower than nominal %d", slow.Duration(), nominal.Duration())
	}
	if err := p.SetStraggler(3, 1); err != nil {
		t.Fatal(err)
	}
	cleared, err := p.RunCollective(astrasim.AllReduce, 256<<10)
	if err != nil {
		t.Fatal(err)
	}
	if cleared.Duration() != nominal.Duration() {
		t.Errorf("clearing the straggler: %d, want nominal %d", cleared.Duration(), nominal.Duration())
	}
}

func TestSwitchedPlatform(t *testing.T) {
	p, err := astrasim.NewSwitchedPlatform(4, 4, astrasim.WithLocalSwitches(2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.RunCollective(astrasim.AllReduce, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if res.Duration() == 0 {
		t.Error("zero duration on switched platform")
	}
}

func TestPlatformAudit(t *testing.T) {
	p, err := astrasim.NewTorusPlatform(2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	p.SetAudit(true)
	if _, err := p.RunCollective(astrasim.AllReduce, 1<<20); err != nil {
		t.Fatalf("audited collective: %v", err)
	}
	if _, err := p.Train(astrasim.ResNet50(4), 1); err != nil {
		t.Fatalf("audited training: %v", err)
	}
}

// NewPlatformFromSpec must accept the full spec grammar — including the
// compositional hier: form — and honor construction options, so spec
// strings and typed constructors are interchangeable front doors.
func TestPlatformFromHierSpec(t *testing.T) {
	p, err := astrasim.NewPlatformFromSpec("hier:sw2,fc2,ring2",
		astrasim.WithAlgorithm(astrasim.Enhanced),
		astrasim.WithBackend(astrasim.FastBackend),
		astrasim.WithSetSplits(2),
		astrasim.WithEndpointDelay(8),
		astrasim.WithSchedulingPolicy(astrasim.FIFO),
		astrasim.WithIntraParallel(0),
		astrasim.WithNetwork(astrasim.DefaultNetworkConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if p.NumNPUs() != 8 {
		t.Errorf("NumNPUs = %d, want 8", p.NumNPUs())
	}
	if p.Name() == "" {
		t.Error("empty platform name")
	}
	res, err := p.RunCollective(astrasim.AllReduce, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	if res.Duration() == 0 {
		t.Error("zero-duration collective on hier spec")
	}
	if _, err := astrasim.NewPlatformFromSpec("hier:ring2,spine4"); err == nil {
		t.Error("bad hier spec accepted")
	}
	if b, err := astrasim.ParseBackend("fast"); err != nil || b != astrasim.FastBackend {
		t.Errorf("ParseBackend(fast) = %v, %v", b, err)
	}
	if _, err := astrasim.ParseBackend("quantum"); err == nil {
		t.Error("ParseBackend accepted unknown backend")
	}
}

// Specs whose NPU count overflows int must fail by name at construction:
// they used to build a zero-NPU fabric (the first two) or exhaust memory
// (the third).
func TestPlatformFromSpecRejectsNPUOverflow(t *testing.T) {
	for spec, name := range map[string]string{
		"hier:ring4294967296,ring4294967296": "ring4294967296+ring4294967296 hier",
		"4294967296x4294967296":              "4294967296x4294967296 torus",
		"3037000500x3037000500x2":            "3037000500x3037000500x2 torus",
	} {
		p, err := astrasim.NewPlatformFromSpec(spec)
		if err == nil {
			t.Errorf("%s: built a platform with %d NPUs", spec, p.NumNPUs())
			continue
		}
		if !strings.Contains(err.Error(), name) {
			t.Errorf("%s: error %q does not name %q", spec, err, name)
		}
	}
}

// Training through the facade with a remote-placed layer must stall
// exactly when a pool is armed: same workload, same platform shape —
// the pool-armed run is strictly slower, the pool-free run identical
// to an all-local one.
func TestPlatformTrainWithRemoteMemory(t *testing.T) {
	def := astrasim.Definition{
		Name:        "tiny-remote",
		Parallelism: astrasim.DataParallel,
		Layers: []astrasim.Layer{{
			Name:       "fc",
			FwdCompute: 100, IGCompute: 100, WGCompute: 100,
			WGComm:      astrasim.AllReduce,
			WGBytes:     1 << 16,
			UpdatePerKB: 10,
			Placement:   astrasim.PlaceRemote,
		}},
	}
	train := func(opts ...astrasim.Option) uint64 {
		t.Helper()
		p, err := astrasim.NewTorusPlatform(2, 2, 1, opts...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Train(def, 1)
		if err != nil {
			t.Fatal(err)
		}
		return uint64(res.TotalCycles)
	}
	free := train()
	armed := train(astrasim.WithRemoteMemory(2, 5000))
	if armed <= free {
		t.Errorf("armed pool (%d cycles) should stall past pool-free run (%d)", armed, free)
	}
	local := def
	local.Layers = append([]astrasim.Layer(nil), def.Layers...)
	local.Layers[0].Placement = astrasim.PlaceLocal
	def = local
	if got := train(); got != free {
		t.Errorf("pool-free remote placement cost %d cycles vs local %d; placements must be free without a pool", got, free)
	}
}
