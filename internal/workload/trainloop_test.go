package workload_test

import (
	"fmt"
	"testing"

	"astrasim/internal/collectives"
	"astrasim/internal/compute"
	"astrasim/internal/config"
	"astrasim/internal/graph"
	"astrasim/internal/system"
	"astrasim/internal/topology"
	"astrasim/internal/workload"
)

// The training loop's behaviour, driven the way every front end runs a
// layer-wise workload: graph.FromDefinition unrolls the loop and
// graph.Run replays it.

// train runs def for passes iterations on inst.
func train(t *testing.T, inst *system.Instance, def workload.Definition, passes int) workload.Result {
	t.Helper()
	g, err := graph.FromDefinition(def, passes)
	if err != nil {
		t.Fatal(err)
	}
	res, err := graph.Run(inst, g)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// newRemoteMemInstance builds the 2x2x1 fixture with a remote
// memory pool attached (bw bytes/cycle, lat cycles).
func newRemoteMemInstance(t *testing.T, bw float64, lat uint64) *system.Instance {
	t.Helper()
	tp, err := topology.NewTorus(2, 2, 1, topology.DefaultTorusConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.DefaultSystem()
	cfg.RemoteMemBandwidth = bw
	cfg.RemoteMemLatency = lat
	inst, err := system.NewInstance(tp, cfg, config.DefaultNetwork())
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// newInstance builds the 2x2x1 torus fixture the training-loop tests
// run on.
func newInstance(t *testing.T) *system.Instance { return newRemoteMemInstance(t, 0, 0) }

func TestTrainerComputeOnly(t *testing.T) {
	def := workload.SampleDef()
	for i := range def.Layers {
		def.Layers[i].WGComm = collectives.None
		def.Layers[i].WGBytes = 0
	}
	res := train(t, newInstance(t), def, 3)
	wantPerPass := def.TotalComputeCycles()
	if uint64(res.TotalCycles) != 3*wantPerPass {
		t.Errorf("total = %d, want %d (pure compute)", res.TotalCycles, 3*wantPerPass)
	}
	if res.TotalExposed() != 0 {
		t.Errorf("exposed = %d, want 0 without communication", res.TotalExposed())
	}
	if res.TotalCompute() != 3*wantPerPass {
		t.Errorf("compute = %d, want %d", res.TotalCompute(), 3*wantPerPass)
	}
}

func TestTrainerOverlapHidesWGComm(t *testing.T) {
	def := workload.SampleDef()
	// Huge compute: the WG all-reduce of each layer has an entire
	// iteration of compute to hide under.
	for i := range def.Layers {
		def.Layers[i].FwdCompute = 10_000_000
		def.Layers[i].IGCompute = 10_000_000
		def.Layers[i].WGCompute = 10_000_000
		def.Layers[i].UpdatePerKB = 0
	}
	res := train(t, newInstance(t), def, 2)
	// §III-E: "the overheads of the first layer's weight gradient
	// communication in data parallelism is fully exposed given lack of
	// useful compute to overlap". Every other layer hides completely.
	if res.Layers[1].ExposedCycles != 0 {
		t.Errorf("layer 1 exposed = %d, want 0 (hidden under an iteration of compute)",
			res.Layers[1].ExposedCycles)
	}
	if res.Layers[0].ExposedCycles == 0 {
		t.Error("layer 0's weight-gradient comm must be fully exposed (§III-E)")
	}
	if res.TotalComm() == 0 {
		t.Error("raw comm time should still be recorded")
	}
}

func TestTrainerZeroComputeExposesComm(t *testing.T) {
	def := workload.SampleDef()
	for i := range def.Layers {
		def.Layers[i].FwdCompute = 0
		def.Layers[i].IGCompute = 0
		def.Layers[i].WGCompute = 0
		def.Layers[i].UpdatePerKB = 0
	}
	res := train(t, newInstance(t), def, 2)
	if res.TotalExposed() == 0 {
		t.Error("exposed should be nonzero with zero compute")
	}
	if res.ExposedRatio() < 0.9 {
		t.Errorf("exposed ratio = %.2f, want ~1 with zero compute", res.ExposedRatio())
	}
}

func TestTrainerBlockingForwardComm(t *testing.T) {
	def := workload.Definition{
		Name:        "model-parallel",
		Parallelism: workload.ModelParallel,
		Layers: []workload.Layer{
			{Name: "l1", FwdCompute: 1000, IGCompute: 1000, WGCompute: 1000,
				FwdComm: collectives.AllGather, FwdBytes: 256 << 10,
				IGComm: collectives.AllReduce, IGBytes: 256 << 10},
			{Name: "l2", FwdCompute: 1000, IGCompute: 1000, WGCompute: 1000,
				FwdComm: collectives.AllGather, FwdBytes: 256 << 10,
				IGComm: collectives.AllReduce, IGBytes: 256 << 10},
		},
	}
	res := train(t, newInstance(t), def, 1)
	// Forward activations block entirely; IG all-reduce can hide only
	// under WG compute (1000 cycles).
	if res.TotalExposed() == 0 {
		t.Fatal("model parallel must expose communication")
	}
	for _, l := range res.Layers {
		if l.FwdCommCycles == 0 || l.IGCommCycles == 0 {
			t.Errorf("layer %s missing comm accounting: %+v", l.Name, l)
		}
		// Exposed must be at least the raw forward comm (fully blocking).
		if l.ExposedCycles < l.FwdCommCycles {
			t.Errorf("layer %s exposed %d < blocking fwd comm %d", l.Name, l.ExposedCycles, l.FwdCommCycles)
		}
	}
}

func TestTrainerLocalUpdateDelays(t *testing.T) {
	def := workload.SampleDef()
	for i := range def.Layers {
		def.Layers[i].FwdCompute = 0
		def.Layers[i].IGCompute = 0
		def.Layers[i].WGCompute = 0
	}
	slow := def
	slow.Layers = append([]workload.Layer(nil), def.Layers...)
	for i := range slow.Layers {
		slow.Layers[i].UpdatePerKB = 1000
	}
	run := func(d workload.Definition) uint64 {
		return uint64(train(t, newInstance(t), d, 2).TotalCycles)
	}
	if fast, slowT := run(def), run(slow); slowT <= fast {
		t.Errorf("large local update time should slow training: %d vs %d", slowT, fast)
	}
}

// Fig. 18 shape: exposed ratio grows with compute power.
func TestExposedRatioGrowsWithComputeScale(t *testing.T) {
	def := workload.SampleDef()
	for i := range def.Layers {
		def.Layers[i].FwdCompute = 200_000
		def.Layers[i].IGCompute = 200_000
		def.Layers[i].WGCompute = 200_000
		def.Layers[i].WGBytes = 4 << 20
	}
	ratio := func(scale float64) float64 {
		return train(t, newInstance(t), def.ScaleCompute(scale), 2).ExposedRatio()
	}
	r05, r1, r4 := ratio(0.5), ratio(1), ratio(4)
	if !(r05 <= r1 && r1 <= r4) {
		t.Errorf("exposed ratio not monotone in compute power: 0.5x=%.3f 1x=%.3f 4x=%.3f", r05, r1, r4)
	}
	if r4 <= r05 {
		t.Errorf("4x compute should expose much more comm than 0.5x: %.3f vs %.3f", r4, r05)
	}
}

// LIFO scheduling prioritizes the first layers' late-issued weight
// gradients (§III-E), so it should never lose to FIFO on a comm-bound
// data-parallel workload.
func TestLIFONotWorseThanFIFO(t *testing.T) {
	def := workload.Definition{Name: "deep", Parallelism: workload.DataParallel}
	for i := 0; i < 8; i++ {
		def.Layers = append(def.Layers, workload.Layer{
			Name:       fmt.Sprintf("l%d", i),
			FwdCompute: 5000, IGCompute: 5000, WGCompute: 5000,
			WGComm: collectives.AllReduce, WGBytes: 2 << 20,
		})
	}
	run := func(policy config.SchedulingPolicy) uint64 {
		tp, err := topology.NewTorus(2, 2, 1, topology.DefaultTorusConfig())
		if err != nil {
			t.Fatal(err)
		}
		cfg := config.DefaultSystem()
		cfg.SchedulingPolicy = policy
		inst, err := system.NewInstance(tp, cfg, config.DefaultNetwork())
		if err != nil {
			t.Fatal(err)
		}
		return uint64(train(t, inst, def, 2).TotalCycles)
	}
	lifo, fifo := run(config.LIFO), run(config.FIFO)
	if lifo > fifo {
		t.Errorf("LIFO (%d) slower than FIFO (%d) on comm-bound data parallel", lifo, fifo)
	}
}

func TestTrainerDeterminism(t *testing.T) {
	run := func() uint64 {
		return uint64(train(t, newInstance(t), workload.SampleDef(), 2).TotalCycles)
	}
	if a, b := run(), run(); a != b {
		t.Errorf("nondeterministic training time: %d vs %d", a, b)
	}
}

// A hybrid Transformer trains with scoped collectives; vertical-scoped
// activation exchanges move no horizontal-dimension traffic.
func TestScopedTrainingRuns(t *testing.T) {
	tp, err := topology.NewTorus(2, 2, 2, topology.DefaultTorusConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.DefaultSystem()
	inst, err := system.NewInstance(tp, cfg, config.DefaultNetwork())
	if err != nil {
		t.Fatal(err)
	}
	def := workload.Definition{Name: "scoped", Parallelism: workload.HybridParallel,
		Layers: []workload.Layer{{
			Name: "enc", FwdCompute: 1000, IGCompute: 1000, WGCompute: 1000,
			FwdComm: collectives.AllGather, FwdScope: "vertical", FwdBytes: 256 << 10,
			IGComm: collectives.AllReduce, IGScope: "vertical", IGBytes: 256 << 10,
			WGComm: collectives.AllReduce, WGScope: "local+horizontal", WGBytes: 256 << 10,
		}}}
	res := train(t, inst, def, 2)
	if res.Layers[0].FwdCommCycles == 0 || res.Layers[0].WGCommCycles == 0 {
		t.Errorf("scoped collectives not accounted: %+v", res.Layers[0])
	}
}

// Training time must order with how much of the model lives behind the
// pooled-memory link: local <= interleaved <= remote, with remote
// strictly slower on a slow pool. And with no pool configured, placement
// annotations are inert — byte-identical to an all-local run.
func TestTrainerPlacementMonotone(t *testing.T) {
	run := func(p compute.Placement, bw float64, lat uint64) uint64 {
		def := workload.SampleDef()
		def.Layers = append([]workload.Layer(nil), def.Layers...)
		for i := range def.Layers {
			def.Layers[i].Placement = p
		}
		return uint64(train(t, newRemoteMemInstance(t, bw, lat), def, 2).TotalCycles)
	}
	// A deliberately slow pool so the stall dominates rounding noise.
	const bw, lat = 2.0, 5000
	local := run(compute.PlaceLocal, bw, lat)
	inter := run(compute.PlaceInterleaved, bw, lat)
	remote := run(compute.PlaceRemote, bw, lat)
	if !(local <= inter && inter <= remote) {
		t.Fatalf("placement order broken: local %d, interleaved %d, remote %d", local, inter, remote)
	}
	if remote <= local {
		t.Fatalf("remote placement on a slow pool did not slow training: %d vs %d", remote, local)
	}

	// Disabled pool: remote placement must cost nothing.
	offLocal := run(compute.PlaceLocal, 0, 0)
	offRemote := run(compute.PlaceRemote, 0, 0)
	if offLocal != offRemote {
		t.Fatalf("placement changed a pool-less run: local %d, remote %d", offLocal, offRemote)
	}
}
