package graph

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"astrasim/internal/collectives"
	"astrasim/internal/config"
	"astrasim/internal/eventq"
	"astrasim/internal/system"
	"astrasim/internal/topology"
	"astrasim/internal/workload"
)

// newTorusInstance builds a 2x2x2 torus instance (all three scope dims
// available, so scoped HYBRID workloads compile).
func newTorusInstance(t testing.TB) *system.Instance {
	t.Helper()
	tp, err := topology.NewTorus(2, 2, 2, topology.DefaultTorusConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.DefaultSystem()
	cfg.Topology = config.Torus3D
	cfg.LocalSize, cfg.HorizontalSize, cfg.VerticalSize = 2, 2, 2
	inst, err := system.NewInstance(tp, cfg, config.DefaultNetwork())
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// newA2AInstance builds a 2x2 alltoall instance.
func newA2AInstance(t testing.TB) *system.Instance {
	t.Helper()
	tp, err := topology.NewA2A(2, 2, topology.DefaultA2AConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.DefaultSystem()
	cfg.Topology = config.AllToAll
	cfg.LocalSize, cfg.HorizontalSize = 2, 2
	inst, err := system.NewInstance(tp, cfg, config.DefaultNetwork())
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// loadWorkload parses one of the committed workload files.
func loadWorkload(t *testing.T, name string) workload.Definition {
	t.Helper()
	path := filepath.Join("..", "..", "workloads", name)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	def, err := workload.Parse(name, f)
	if err != nil {
		t.Fatal(err)
	}
	return def
}

// syntheticData is a small DATA-parallel definition exercising overlap:
// big weight-gradient collectives under short compute.
func syntheticData() workload.Definition {
	return workload.Definition{
		Name:        "synth-data",
		Parallelism: workload.DataParallel,
		Layers: []workload.Layer{
			{Name: "conv", FwdCompute: 1000, IGCompute: 1100, WGCompute: 1200,
				FwdComm: collectives.None, IGComm: collectives.None,
				WGComm: collectives.AllReduce, WGBytes: 256 << 10, UpdatePerKB: 2},
			{Name: "fc", FwdCompute: 400, IGCompute: 500, WGCompute: 600,
				FwdComm: collectives.None, IGComm: collectives.None,
				WGComm: collectives.AllReduce, WGBytes: 512 << 10, UpdatePerKB: 2},
		},
	}
}

// syntheticModel is a MODEL-parallel definition: blocking forward
// all-gathers and input-gradient exchanges, no weight sync.
func syntheticModel() workload.Definition {
	return workload.Definition{
		Name:        "synth-model",
		Parallelism: workload.ModelParallel,
		Layers: []workload.Layer{
			{Name: "embed", FwdCompute: 800, IGCompute: 900, WGCompute: 300,
				FwdComm: collectives.AllGather, FwdBytes: 64 << 10,
				IGComm: collectives.AllToAll, IGBytes: 32 << 10,
				WGComm: collectives.None},
			{Name: "mlp", FwdCompute: 1500, IGCompute: 1600, WGCompute: 500,
				FwdComm: collectives.AllGather, FwdBytes: 128 << 10,
				IGComm: collectives.AllToAll, IGBytes: 64 << 10,
				WGComm: collectives.None},
			{Name: "head", FwdCompute: 200, IGCompute: 250, WGCompute: 100,
				FwdComm: collectives.AllReduce, FwdBytes: 16 << 10,
				IGComm: collectives.None, WGComm: collectives.None},
		},
	}
}

// referenceFile holds the layer-wise training loop's results for the
// converter corpus. It was recorded by the continuation-passing trainer
// (the hand-written scheduler FromDefinition unrolls) before that
// scheduler was retired, so it is an independent reference: it must not
// be re-recorded from the graph engine.
const referenceFile = "testdata/trainer_reference.json"

// refLayer is one layer row of a recorded result; handle spans are
// [CreatedAt, DoneAt] pairs in issue order.
type refLayer struct {
	Name                             string
	Compute, FwdComm, IGComm, WGComm uint64
	Exposed                          uint64
	FwdHandles, IGHandles, WGHandles [][2]eventq.Time
}

// refCase is one recorded run, keyed by its subtest name.
type refCase struct {
	Name        string
	TotalCycles eventq.Time
	Passes      int
	Layers      []refLayer
}

// fromRef rebuilds a result from its recorded form; handles carry only
// their spans.
func fromRef(rc refCase) workload.Result {
	handles := func(spans [][2]eventq.Time) []*system.Handle {
		out := make([]*system.Handle, len(spans))
		for i, s := range spans {
			out[i] = &system.Handle{CreatedAt: s[0], DoneAt: s[1]}
		}
		return out
	}
	r := workload.Result{TotalCycles: rc.TotalCycles, Passes: rc.Passes}
	for _, l := range rc.Layers {
		r.Layers = append(r.Layers, workload.LayerStats{
			Name: l.Name, ComputeCycles: l.Compute,
			FwdCommCycles: l.FwdComm, IGCommCycles: l.IGComm, WGCommCycles: l.WGComm,
			ExposedCycles: l.Exposed,
			FwdHandles:    handles(l.FwdHandles), IGHandles: handles(l.IGHandles), WGHandles: handles(l.WGHandles),
		})
	}
	return r
}

// loadReference reads the recorded results by case name.
func loadReference(t *testing.T) map[string]refCase {
	t.Helper()
	raw, err := os.ReadFile(referenceFile)
	if err != nil {
		t.Fatal(err)
	}
	var cases []refCase
	if err := json.Unmarshal(raw, &cases); err != nil {
		t.Fatalf("%s: %v", referenceFile, err)
	}
	out := make(map[string]refCase, len(cases))
	for _, c := range cases {
		out[c.Name] = c
	}
	return out
}

// TestConverterCycleExact pins the layer-wise workload path: for every
// definition of the corpus, across two topology families and 1..2
// passes, compiling the definition to a graph and replaying it must
// reproduce the recorded training-loop result byte-for-byte — total
// cycles, per-layer compute, raw comm by pass, exposed stalls, and every
// collective's issue and completion cycle.
func TestConverterCycleExact(t *testing.T) {
	ref := loadReference(t)
	defs := []workload.Definition{
		loadWorkload(t, "dlrm.txt"),
		loadWorkload(t, "resnet50.txt"),
		loadWorkload(t, "transformer.txt"),
		syntheticData(),
		syntheticModel(),
	}
	topos := map[string]func(testing.TB) *system.Instance{
		"torus2x2x2": newTorusInstance,
		"a2a2x2":     newA2AInstance,
	}
	for _, def := range defs {
		for tpName, newInst := range topos {
			for passes := 1; passes <= 2; passes++ {
				name := fmt.Sprintf("%s/%s/p%d", def.Name, tpName, passes)
				t.Run(name, func(t *testing.T) {
					if scoped(def) && tpName != "torus2x2x2" {
						t.Skip("scoped workload needs the 3D torus")
					}
					if testing.Short() && def.Name == "resnet50.txt" && passes == 2 {
						t.Skip("skipping the slowest case in -short mode")
					}
					want, ok := ref[name]
					if !ok {
						t.Fatalf("%s has no recorded case %s", referenceFile, name)
					}
					g, err := FromDefinition(def, passes)
					if err != nil {
						t.Fatal(err)
					}
					got, err := Run(newInst(t), g)
					if err != nil {
						t.Fatal(err)
					}
					compareResults(t, fromRef(want), got)
				})
			}
		}
	}
}

// scoped reports whether any layer restricts a collective's scope.
func scoped(def workload.Definition) bool {
	for _, l := range def.Layers {
		if l.FwdScope != "" || l.IGScope != "" || l.WGScope != "" {
			return true
		}
	}
	return false
}

// compareResults asserts got replays want exactly.
func compareResults(t *testing.T, want, got workload.Result) {
	t.Helper()
	if got.TotalCycles != want.TotalCycles {
		t.Errorf("TotalCycles = %d, want %d", got.TotalCycles, want.TotalCycles)
	}
	if got.Passes != want.Passes {
		t.Errorf("Passes = %d, want %d", got.Passes, want.Passes)
	}
	if len(got.Layers) != len(want.Layers) {
		t.Fatalf("got %d layer rows, want %d", len(got.Layers), len(want.Layers))
	}
	for i := range want.Layers {
		w, g := want.Layers[i], got.Layers[i]
		if g.Name != w.Name {
			t.Errorf("layer %d name = %q, want %q", i, g.Name, w.Name)
			continue
		}
		if g.ComputeCycles != w.ComputeCycles {
			t.Errorf("%s: ComputeCycles = %d, want %d", w.Name, g.ComputeCycles, w.ComputeCycles)
		}
		if g.FwdCommCycles != w.FwdCommCycles || g.IGCommCycles != w.IGCommCycles || g.WGCommCycles != w.WGCommCycles {
			t.Errorf("%s: comm cycles = %d/%d/%d, want %d/%d/%d", w.Name,
				g.FwdCommCycles, g.IGCommCycles, g.WGCommCycles,
				w.FwdCommCycles, w.IGCommCycles, w.WGCommCycles)
		}
		if g.ExposedCycles != w.ExposedCycles {
			t.Errorf("%s: ExposedCycles = %d, want %d", w.Name, g.ExposedCycles, w.ExposedCycles)
		}
		compareHandles(t, w.Name+"/fwd", w.FwdHandles, g.FwdHandles)
		compareHandles(t, w.Name+"/ig", w.IGHandles, g.IGHandles)
		compareHandles(t, w.Name+"/wg", w.WGHandles, g.WGHandles)
	}
}

// compareHandles asserts the same collectives ran with the same timing.
func compareHandles(t *testing.T, label string, want, got []*system.Handle) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d handles, want %d", label, len(got), len(want))
		return
	}
	for i := range want {
		if got[i].CreatedAt != want[i].CreatedAt || got[i].DoneAt != want[i].DoneAt {
			t.Errorf("%s[%d]: span [%d,%d], want [%d,%d]", label, i,
				got[i].CreatedAt, got[i].DoneAt, want[i].CreatedAt, want[i].DoneAt)
		}
	}
}
