package workload

import (
	"bytes"
	"strings"
	"testing"

	"astrasim/internal/collectives"
	"astrasim/internal/config"
	"astrasim/internal/system"
	"astrasim/internal/topology"
)

func sampleDef() Definition {
	return Definition{
		Name:        "sample",
		Parallelism: DataParallel,
		Layers: []Layer{
			{Name: "conv1", FwdCompute: 1000, IGCompute: 1100, WGCompute: 1200,
				FwdComm: collectives.None, IGComm: collectives.None, WGComm: collectives.AllReduce,
				WGBytes: 64 << 10, UpdatePerKB: 2},
			{Name: "fc", FwdCompute: 500, IGCompute: 600, WGCompute: 700,
				FwdComm: collectives.None, IGComm: collectives.None, WGComm: collectives.AllReduce,
				WGBytes: 128 << 10, UpdatePerKB: 2},
		},
	}
}

func TestParseWriteRoundTrip(t *testing.T) {
	def := sampleDef()
	def.Parallelism = HybridParallel
	def.Layers[0].FwdComm = collectives.AllGather
	def.Layers[0].FwdBytes = 32 << 10
	def.Layers[0].IGComm = collectives.AllToAll
	def.Layers[0].IGBytes = 16 << 10
	var buf bytes.Buffer
	if err := Write(&buf, def); err != nil {
		t.Fatal(err)
	}
	got, err := Parse("sample", &buf)
	if err != nil {
		t.Fatalf("Parse: %v\ninput:\n%s", err, buf.String())
	}
	if got.Parallelism != def.Parallelism || len(got.Layers) != len(def.Layers) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	for i := range def.Layers {
		if got.Layers[i] != def.Layers[i] {
			t.Errorf("layer %d: got %+v, want %+v", i, got.Layers[i], def.Layers[i])
		}
	}
}

func TestParseSkipsCommentsAndBlanks(t *testing.T) {
	input := `
# a workload
DATA

1
# layer one
l1
10 20 30
NONE NONE ALLREDUCE
0 0 1024
5
`
	def, err := Parse("t", strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if def.Layers[0].WGBytes != 1024 || def.Layers[0].UpdatePerKB != 5 {
		t.Errorf("parsed layer = %+v", def.Layers[0])
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"bad parallelism": "PIPELINED\n1\nl\n1 1 1\nNONE NONE NONE\n0 0 0\n0\n",
		"bad layer count": "DATA\nzero\n",
		"truncated":       "DATA\n2\nl1\n1 1 1\nNONE NONE ALLREDUCE\n0 0 10\n0\n",
		"bad op":          "DATA\n1\nl\n1 1 1\nNONE NONE BCAST\n0 0 10\n0\n",
		"op w/o size":     "DATA\n1\nl\n1 1 1\nNONE NONE ALLREDUCE\n0 0 0\n0\n",
	}
	for name, in := range cases {
		if _, err := Parse(name, strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected parse error", name)
		}
	}
}

func TestParseRejectsDuplicateLayerNames(t *testing.T) {
	input := `DATA
2
conv1
10 20 30
NONE NONE ALLREDUCE
0 0 1024
1
conv1
11 21 31
NONE NONE ALLREDUCE
0 0 2048
1
`
	_, err := Parse("dup", strings.NewReader(input))
	if err == nil {
		t.Fatal("expected duplicate-layer-name error")
	}
	msg := err.Error()
	if !strings.Contains(msg, "conv1") {
		t.Errorf("error %q does not name the duplicate layer", msg)
	}
	// Both the failing and the original definition lines are reported.
	if !strings.Contains(msg, "line 8") || !strings.Contains(msg, "line 3") {
		t.Errorf("error %q does not carry both line numbers", msg)
	}
}

func TestCommPatternTableI(t *testing.T) {
	// Table I: data -> weight gradients only; model -> activations and
	// input gradients; hybrid -> all (partially).
	a, w, i := DataParallel.CommPattern()
	if a || !w || i {
		t.Errorf("data parallel pattern = %v %v %v", a, w, i)
	}
	a, w, i = ModelParallel.CommPattern()
	if !a || w || !i {
		t.Errorf("model parallel pattern = %v %v %v", a, w, i)
	}
	a, w, i = HybridParallel.CommPattern()
	if !a || !w || !i {
		t.Errorf("hybrid parallel pattern = %v %v %v", a, w, i)
	}
}

func TestUpdateCycles(t *testing.T) {
	l := Layer{UpdatePerKB: 3}
	if got := l.UpdateCycles(2048); got != 6 {
		t.Errorf("UpdateCycles(2048) = %d, want 6", got)
	}
	if got := l.UpdateCycles(1); got != 3 {
		t.Errorf("UpdateCycles(1) = %d, want 3 (ceil to 1 KB)", got)
	}
	if got := l.UpdateCycles(0); got != 0 {
		t.Errorf("UpdateCycles(0) = %d, want 0", got)
	}
}

func TestScaleCompute(t *testing.T) {
	def := sampleDef()
	fast := def.ScaleCompute(2)
	if fast.Layers[0].FwdCompute != 500 || fast.Layers[1].WGCompute != 350 {
		t.Errorf("scaled layers = %+v", fast.Layers)
	}
	if def.Layers[0].FwdCompute != 1000 {
		t.Error("ScaleCompute mutated the original")
	}
}

func TestAutoPartitionBalances(t *testing.T) {
	def := sampleDef()
	def.Layers = append(def.Layers, def.Layers...) // 4 layers
	b := AutoPartition(def, 2)
	if len(b) != 1 || b[0] < 1 || b[0] >= len(def.Layers) {
		t.Fatalf("boundaries = %v", b)
	}
	if AutoPartition(def, 1) != nil {
		t.Error("1 stage should return nil")
	}
	if AutoPartition(def, 100) != nil {
		t.Error("more stages than layers should return nil")
	}
	b4 := AutoPartition(def, 4)
	if len(b4) != 3 {
		t.Fatalf("4-stage boundaries = %v", b4)
	}
	for i := 1; i < len(b4); i++ {
		if b4[i] <= b4[i-1] {
			t.Fatalf("boundaries not strictly ascending: %v", b4)
		}
	}
}

func TestPipelineConfigValidate(t *testing.T) {
	good := PipelineConfig{
		Boundaries:    []int{1},
		StageNodes:    []topology.Node{0, 1},
		Microbatches:  4,
		BoundaryBytes: []int64{1024},
	}
	if err := good.Validate(2); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Microbatches = 0
	if err := bad.Validate(2); err == nil {
		t.Error("expected error for zero microbatches")
	}
	bad = good
	bad.Boundaries = []int{5}
	if err := bad.Validate(2); err == nil {
		t.Error("expected error for out-of-range boundary")
	}
	bad = good
	bad.BoundaryBytes = nil
	if err := bad.Validate(2); err == nil {
		t.Error("expected error for missing boundary bytes")
	}
}

func TestPipelineRuns(t *testing.T) {
	tp, err := topology.NewTorus(1, 4, 1, topology.DefaultTorusConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.DefaultSystem()
	inst, err := system.NewInstance(tp, cfg, config.DefaultNetwork())
	if err != nil {
		t.Fatal(err)
	}
	def := Definition{Name: "pipe", Parallelism: ModelParallel}
	for i := 0; i < 8; i++ {
		def.Layers = append(def.Layers, Layer{
			Name: "l", FwdCompute: 8000, IGCompute: 8000, WGCompute: 8000,
		})
	}
	pcfg := PipelineConfig{
		Boundaries:    []int{2, 4, 6},
		StageNodes:    []topology.Node{0, 1, 2, 3},
		Microbatches:  8,
		BoundaryBytes: []int64{64 << 10, 64 << 10, 64 << 10},
	}
	res, err := RunPipeline(inst, def, pcfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalCycles == 0 {
		t.Fatal("zero total")
	}
	if len(res.Stages) != 4 {
		t.Fatalf("stages = %d", len(res.Stages))
	}
	// Total compute is conserved: each stage computed its share.
	var total uint64
	for _, s := range res.Stages {
		total += s.ComputeCycles
		if s.ComputeCycles == 0 {
			t.Error("stage with zero compute")
		}
	}
	want := def.TotalComputeCycles()
	if total != want {
		t.Errorf("total stage compute %d != definition %d", total, want)
	}
	if res.BubbleRatio <= 0 || res.BubbleRatio >= 1 {
		t.Errorf("bubble ratio = %v, want in (0,1)", res.BubbleRatio)
	}
	// Lower bound: the critical path is at least one microbatch through
	// all stages plus the busiest stage's full load.
	perStage := uint64(8000 * 3 * 2 / 4) // 2 layers/stage, per microbatch with M=8: 48000/8=6000
	_ = perStage
}

// More microbatches shrink the pipeline bubble (the GPipe tradeoff).
func TestPipelineBubbleShrinksWithMicrobatches(t *testing.T) {
	run := func(m int) float64 {
		tp, err := topology.NewTorus(1, 4, 1, topology.DefaultTorusConfig())
		if err != nil {
			t.Fatal(err)
		}
		cfg := config.DefaultSystem()
		inst, err := system.NewInstance(tp, cfg, config.DefaultNetwork())
		if err != nil {
			t.Fatal(err)
		}
		def := Definition{Name: "pipe", Parallelism: ModelParallel}
		for i := 0; i < 4; i++ {
			def.Layers = append(def.Layers, Layer{
				Name: "l", FwdCompute: 64000, IGCompute: 64000, WGCompute: 64000,
			})
		}
		res, err := RunPipeline(inst, def, PipelineConfig{
			Boundaries:    []int{1, 2, 3},
			StageNodes:    []topology.Node{0, 1, 2, 3},
			Microbatches:  m,
			BoundaryBytes: []int64{32 << 10, 32 << 10, 32 << 10},
		}, 1)
		if err != nil {
			t.Fatal(err)
		}
		return res.BubbleRatio
	}
	b2, b16 := run(2), run(16)
	if b16 >= b2 {
		t.Errorf("bubble with 16 microbatches (%v) not smaller than with 2 (%v)", b16, b2)
	}
}

// 1F1B lets backwards overtake queued forwards, draining the pipeline no
// later than GPipe.
func TestPipeline1F1BNotSlowerThanGPipe(t *testing.T) {
	run := func(sched PipelineSchedule) uint64 {
		tp, err := topology.NewTorus(1, 4, 1, topology.DefaultTorusConfig())
		if err != nil {
			t.Fatal(err)
		}
		cfg := config.DefaultSystem()
		inst, err := system.NewInstance(tp, cfg, config.DefaultNetwork())
		if err != nil {
			t.Fatal(err)
		}
		def := Definition{Name: "pipe", Parallelism: ModelParallel}
		for i := 0; i < 4; i++ {
			def.Layers = append(def.Layers, Layer{
				Name: "l", FwdCompute: 40000, IGCompute: 40000, WGCompute: 40000,
			})
		}
		res, err := RunPipeline(inst, def, PipelineConfig{
			Boundaries:    []int{1, 2, 3},
			StageNodes:    []topology.Node{0, 1, 2, 3},
			Microbatches:  8,
			BoundaryBytes: []int64{32 << 10, 32 << 10, 32 << 10},
			Schedule:      sched,
		}, 1)
		if err != nil {
			t.Fatal(err)
		}
		return uint64(res.TotalCycles)
	}
	gpipe, ofob := run(GPipeSchedule), run(OneFOneBSchedule)
	if ofob > gpipe {
		t.Errorf("1F1B (%d) slower than GPipe (%d)", ofob, gpipe)
	}
}

func TestScopeParsing(t *testing.T) {
	dims, err := Scope("local+horizontal").Dims()
	if err != nil || len(dims) != 2 || dims[0] != topology.DimLocal || dims[1] != topology.DimHorizontal {
		t.Errorf("Dims = %v, %v", dims, err)
	}
	if d, err := Scope("").Dims(); err != nil || d != nil {
		t.Errorf("empty scope = %v, %v, want nil", d, err)
	}
	if _, err := Scope("diagonal").Dims(); err == nil {
		t.Error("expected error for unknown dimension")
	}
}

func TestScopedWorkloadFileRoundTrip(t *testing.T) {
	def := sampleDef()
	def.Parallelism = HybridParallel
	def.Layers[0].FwdComm = collectives.AllGather
	def.Layers[0].FwdScope = "vertical"
	def.Layers[0].FwdBytes = 4096
	def.Layers[0].WGScope = "local+horizontal"
	var buf bytes.Buffer
	if err := Write(&buf, def); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "ALLGATHER@vertical") ||
		!strings.Contains(buf.String(), "ALLREDUCE@local+horizontal") {
		t.Fatalf("scope suffix missing:\n%s", buf.String())
	}
	got, err := Parse("scoped", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Layers[0].FwdScope != "vertical" || got.Layers[0].WGScope != "local+horizontal" {
		t.Errorf("scopes lost in round trip: %+v", got.Layers[0])
	}
	// Bad scope in a file is a parse error.
	badInput := "DATA\n1\nl\n1 1 1\nNONE NONE ALLREDUCE@sideways\n0 0 10\n0\n"
	if _, err := Parse("bad", strings.NewReader(badInput)); err == nil {
		t.Error("expected error for unknown scope dimension")
	}
}
