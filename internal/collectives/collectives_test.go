package collectives

import (
	"math"
	"testing"
	"testing/quick"

	"astrasim/internal/config"
	"astrasim/internal/topology"
)

func mustTorus(t *testing.T, m, n, k int) *topology.Hierarchical {
	t.Helper()
	tp, err := topology.NewTorus(m, n, k, topology.DefaultTorusConfig())
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

func mustA2A(t *testing.T, m, n, switches int) *topology.A2A {
	t.Helper()
	tp, err := topology.NewA2A(m, n, topology.A2AConfig{LocalRings: 2, GlobalSwitches: switches})
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

func TestParseOp(t *testing.T) {
	for _, s := range []string{"NONE", "REDUCESCATTER", "ALLGATHER", "ALLREDUCE", "ALLTOALL"} {
		op, err := ParseOp(s)
		if err != nil {
			t.Errorf("ParseOp(%q): %v", s, err)
		}
		if op.String() != s {
			t.Errorf("round trip %q -> %v", s, op)
		}
	}
	if _, err := ParseOp("BROADCAST"); err == nil {
		t.Error("expected error for unknown op")
	}
}

func TestCompileBaselineAllReduceTorus(t *testing.T) {
	tp := mustTorus(t, 4, 4, 4)
	phases, err := Compile(AllReduce, tp, config.Baseline)
	if err != nil {
		t.Fatal(err)
	}
	if len(phases) != 3 {
		t.Fatalf("phases = %d, want 3", len(phases))
	}
	wantDims := []topology.Dim{topology.DimLocal, topology.DimVertical, topology.DimHorizontal}
	for i, p := range phases {
		if p.Dim != wantDims[i] || p.Op != AllReduce || p.Scale != 1 || p.Size != 4 {
			t.Errorf("phase %d = %v, want full all-reduce on %v", i, p, wantDims[i])
		}
	}
}

func TestCompileEnhancedAllReduceTorus(t *testing.T) {
	tp := mustTorus(t, 4, 4, 4)
	phases, err := Compile(AllReduce, tp, config.Enhanced)
	if err != nil {
		t.Fatal(err)
	}
	if len(phases) != 4 {
		t.Fatalf("phases = %d, want 4 (the four-phase algorithm)", len(phases))
	}
	if phases[0].Op != ReduceScatter || phases[0].Dim != topology.DimLocal || phases[0].Scale != 1 {
		t.Errorf("phase 0 = %v, want local reduce-scatter", phases[0])
	}
	for i := 1; i <= 2; i++ {
		if phases[i].Op != AllReduce || phases[i].Scale != 0.25 {
			t.Errorf("phase %d = %v, want inter-package all-reduce at scale 1/4", i, phases[i])
		}
	}
	if phases[3].Op != AllGather || phases[3].Dim != topology.DimLocal {
		t.Errorf("phase 3 = %v, want local all-gather", phases[3])
	}
}

func TestEnhancedFallsBackWithoutLocalDim(t *testing.T) {
	tp := mustTorus(t, 1, 8, 1)
	phases, err := Compile(AllReduce, tp, config.Enhanced)
	if err != nil {
		t.Fatal(err)
	}
	if len(phases) != 1 || phases[0].Op != AllReduce || phases[0].Dim != topology.DimHorizontal {
		t.Errorf("phases = %v, want single horizontal all-reduce", phases)
	}
}

func TestCompileSkipsSizeOneDims(t *testing.T) {
	tp := mustTorus(t, 1, 8, 8)
	phases, err := Compile(AllReduce, tp, config.Baseline)
	if err != nil {
		t.Fatal(err)
	}
	if len(phases) != 2 {
		t.Fatalf("1x8x8 phases = %d, want 2", len(phases))
	}
}

// Fig. 10 arithmetic: total bytes transmitted per node for the baseline
// all-reduce: 1x64x1 -> (126/64)S, 1x8x8 -> (28/8)S, 2x8x4 -> (34/8)S,
// 4x4x4 -> (36/8)S.
func TestFig10TrafficArithmetic(t *testing.T) {
	const S = 64 << 20
	cases := []struct {
		m, n, k int
		want    float64 // fraction of S
	}{
		{1, 64, 1, 126.0 / 64},
		{1, 8, 8, 28.0 / 8},
		{2, 8, 4, 34.0 / 8},
		{4, 4, 4, 36.0 / 8},
	}
	for _, c := range cases {
		tp := mustTorus(t, c.m, c.n, c.k)
		phases, err := Compile(AllReduce, tp, config.Baseline)
		if err != nil {
			t.Fatal(err)
		}
		got := float64(TotalCollectiveBytesPerNode(phases, S)) / float64(S)
		if math.Abs(got-c.want) > 0.001 {
			t.Errorf("%dx%dx%d: per-node traffic %.4fS, want %.4fS", c.m, c.n, c.k, got, c.want)
		}
	}
}

// Fig. 11: the enhanced algorithm reduces inter-package traffic by the
// local size (4x for a 4x4x4 system).
func TestEnhancedReducesInterPackageTraffic(t *testing.T) {
	tp := mustTorus(t, 4, 4, 4)
	const S = 1 << 20
	interBytes := func(alg config.Algorithm) int64 {
		phases, err := Compile(AllReduce, tp, alg)
		if err != nil {
			t.Fatal(err)
		}
		var total int64
		for _, p := range phases {
			if p.Dim != topology.DimLocal {
				total += p.TotalBytesPerNode(S)
			}
		}
		return total
	}
	base, enh := interBytes(config.Baseline), interBytes(config.Enhanced)
	ratio := float64(base) / float64(enh)
	if math.Abs(ratio-4) > 0.01 {
		t.Errorf("inter-package traffic ratio baseline/enhanced = %.2f, want 4", ratio)
	}
}

func TestStepBytesRing(t *testing.T) {
	p := Phase{Dim: topology.DimLocal, Op: AllReduce, Size: 4, Scale: 1}
	if p.NumSteps() != 6 {
		t.Errorf("ring all-reduce steps = %d, want 6 (2*(4-1))", p.NumSteps())
	}
	for s := 0; s < p.NumSteps(); s++ {
		if got := p.StepBytes(s, 4096); got != 1024 {
			t.Errorf("step %d bytes = %d, want 1024", s, got)
		}
	}
	rs := Phase{Op: ReduceScatter, Size: 4, Scale: 1}
	if rs.NumSteps() != 3 {
		t.Errorf("ring RS steps = %d, want 3", rs.NumSteps())
	}
}

func TestStepBytesRingAllToAllShrinks(t *testing.T) {
	p := Phase{Op: AllToAll, Size: 4, Scale: 1}
	const D = 4096
	want := []int64{3072, 2048, 1024}
	for s, w := range want {
		if got := p.StepBytes(s, D); got != w {
			t.Errorf("a2a relay step %d = %d bytes, want %d", s, got, w)
		}
	}
	// Total = D*(n-1)/2.
	if got := p.TotalBytesPerNode(D); got != D*3/2 {
		t.Errorf("a2a total = %d, want %d", got, D*3/2)
	}
}

func TestStepBytesDirect(t *testing.T) {
	p := Phase{Op: AllReduce, Direct: true, Size: 8, Scale: 1}
	if p.NumSteps() != 2 {
		t.Errorf("direct AR steps = %d, want 2", p.NumSteps())
	}
	if p.MessagesPerStep() != 7 {
		t.Errorf("direct messages/step = %d, want 7", p.MessagesPerStep())
	}
	if got := p.StepBytes(0, 8192); got != 1024 {
		t.Errorf("direct step bytes = %d, want 1024", got)
	}
	// Per-node total: 2 steps * 7 msgs * D/8 = 14/8 D.
	if got := p.TotalBytesPerNode(8192); got != 14*1024 {
		t.Errorf("direct AR total = %d, want %d", got, 14*1024)
	}
}

func TestReduceAtStep(t *testing.T) {
	ar := Phase{Op: AllReduce, Size: 4, Scale: 1}
	for s := 0; s < 3; s++ {
		if !ar.ReduceAtStep(s) {
			t.Errorf("ring AR step %d should reduce (RS half)", s)
		}
	}
	for s := 3; s < 6; s++ {
		if ar.ReduceAtStep(s) {
			t.Errorf("ring AR step %d should not reduce (AG half)", s)
		}
	}
	dar := Phase{Op: AllReduce, Direct: true, Size: 4, Scale: 1}
	if !dar.ReduceAtStep(0) || dar.ReduceAtStep(1) {
		t.Error("direct AR must reduce at step 0 only")
	}
}

// Data-level correctness: the compiled all-reduce leaves every node with
// the global sum, on every topology/algorithm combination.
func TestAllReduceDataCorrectness(t *testing.T) {
	topos := []topology.Topology{
		mustTorus(t, 4, 4, 4),
		mustTorus(t, 2, 4, 2),
		mustTorus(t, 1, 8, 1),
		mustTorus(t, 2, 2, 3),
		mustA2A(t, 1, 8, 7),
		mustA2A(t, 2, 4, 2),
		mustA2A(t, 4, 4, 3),
	}
	const L = 1 << 9 // divisible by every group size used
	for _, tp := range topos {
		for _, alg := range []config.Algorithm{config.Baseline, config.Enhanced} {
			phases, err := Compile(AllReduce, tp, alg)
			if err != nil {
				t.Fatalf("%s/%v: %v", tp.Name(), alg, err)
			}
			n := tp.NumNPUs()
			initial := make([][]float64, n)
			wantSum := make([]float64, L)
			for i := range initial {
				initial[i] = make([]float64, L)
				for j := range initial[i] {
					initial[i][j] = float64(i*1000 + j)
					wantSum[j] += initial[i][j]
				}
			}
			states, err := ExecuteData(phases, tp, initial)
			if err != nil {
				t.Fatalf("%s/%v: ExecuteData: %v", tp.Name(), alg, err)
			}
			for i, s := range states {
				if s.Lo != 0 || s.Hi != L {
					t.Fatalf("%s/%v: node %d range [%d,%d), want full", tp.Name(), alg, i, s.Lo, s.Hi)
				}
				for j, v := range s.Vals {
					if v != wantSum[j] {
						t.Fatalf("%s/%v: node %d elem %d = %v, want %v", tp.Name(), alg, i, j, v, wantSum[j])
					}
				}
			}
		}
	}
}

// Reduce-scatter followed by all-gather composes into an all-reduce.
func TestReduceScatterThenAllGather(t *testing.T) {
	tp := mustTorus(t, 2, 2, 2)
	rs, err := Compile(ReduceScatter, tp, config.Baseline)
	if err != nil {
		t.Fatal(err)
	}
	ag, err := Compile(AllGather, tp, config.Baseline)
	if err != nil {
		t.Fatal(err)
	}
	phases := append(append([]Phase{}, rs...), ag...)
	const L = 64
	n := tp.NumNPUs()
	initial := make([][]float64, n)
	want := make([]float64, L)
	for i := range initial {
		initial[i] = make([]float64, L)
		for j := range initial[i] {
			initial[i][j] = float64(i + j*j)
			want[j] += initial[i][j]
		}
	}
	states, err := ExecuteData(phases, tp, initial)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range states {
		if s.Lo != 0 || s.Hi != L {
			t.Fatalf("node %d range [%d,%d)", i, s.Lo, s.Hi)
		}
		for j, v := range s.Vals {
			if v != want[j] {
				t.Fatalf("node %d elem %d = %v, want %v", i, j, v, want[j])
			}
		}
	}
}

// Reduce-scatter alone leaves disjoint, covering, fully reduced slices.
func TestReduceScatterPartition(t *testing.T) {
	tp := mustTorus(t, 2, 2, 2)
	phases, err := Compile(ReduceScatter, tp, config.Baseline)
	if err != nil {
		t.Fatal(err)
	}
	const L = 64
	n := tp.NumNPUs()
	initial := make([][]float64, n)
	want := make([]float64, L)
	for i := range initial {
		initial[i] = make([]float64, L)
		for j := range initial[i] {
			initial[i][j] = float64(i*j + 1)
			want[j] += initial[i][j]
		}
	}
	states, err := ExecuteData(phases, tp, initial)
	if err != nil {
		t.Fatal(err)
	}
	covered := make([]int, L)
	for i, s := range states {
		if s.Hi-s.Lo != L/n {
			t.Fatalf("node %d slice size %d, want %d", i, s.Hi-s.Lo, L/n)
		}
		for j := s.Lo; j < s.Hi; j++ {
			covered[j]++
			if s.Vals[j-s.Lo] != want[j] {
				t.Fatalf("node %d elem %d = %v, want %v", i, j, s.Vals[j-s.Lo], want[j])
			}
		}
	}
	for j, c := range covered {
		if c != 1 {
			t.Fatalf("element %d covered %d times, want exactly once", j, c)
		}
	}
}

// Multi-phase all-to-all routing delivers every (src, dst) block.
func TestAllToAllRouting(t *testing.T) {
	topos := []topology.Topology{
		mustTorus(t, 2, 3, 4),
		mustTorus(t, 4, 4, 4),
		mustTorus(t, 1, 8, 1),
		mustA2A(t, 2, 4, 2),
		mustA2A(t, 1, 8, 7),
	}
	for _, tp := range topos {
		phases, err := Compile(AllToAll, tp, config.Baseline)
		if err != nil {
			t.Fatal(err)
		}
		n := tp.NumNPUs()
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				hops := RouteAllToAll(phases, tp, topology.Node(src), topology.Node(dst))
				if final := hops[len(hops)-1]; final != topology.Node(dst) {
					t.Errorf("%s: block %d->%d ends at %d (hops %v)", tp.Name(), src, dst, final, hops)
				}
			}
		}
	}
}

// Property: for random torus shapes, baseline all-reduce moves
// sum(2*(d-1)/d) * S bytes per node.
func TestPropertyBaselineTraffic(t *testing.T) {
	f := func(a, b, c uint8) bool {
		m := int(a%4) + 1
		n := int(b%4) + 1
		k := int(c%4) + 1
		tp, err := topology.NewTorus(m, n, k, topology.DefaultTorusConfig())
		if err != nil {
			return false
		}
		phases, err := Compile(AllReduce, tp, config.Baseline)
		if err != nil {
			return false
		}
		const S = 1 << 20
		want := 0.0
		for _, d := range []int{m, n, k} {
			if d > 1 {
				want += 2 * float64(d-1) / float64(d)
			}
		}
		got := float64(TotalCollectiveBytesPerNode(phases, S)) / float64(S)
		return math.Abs(got-want) < 0.001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Message-level ring algorithms: verify the actual N-1 step send/reduce
// schedule produces correct data and per-step sizes matching StepBytes.

// ringReduceScatterMsg simulates the unidirectional ring reduce-scatter at
// message granularity. data[r] is node r's vector. Returns, per node, the
// index of the block it ends up owning and the reduced block.
func ringReduceScatterMsg(data [][]float64) ([]int, [][]float64) {
	n := len(data)
	L := len(data[0])
	block := L / n
	// working copy
	cur := make([][]float64, n)
	for i := range data {
		cur[i] = append([]float64(nil), data[i]...)
	}
	for s := 0; s < n-1; s++ {
		// All sends happen "simultaneously": compute messages first.
		msgs := make([][]float64, n)
		for r := 0; r < n; r++ {
			b := ((r-s)%n + n) % n
			msgs[r] = append([]float64(nil), cur[r][b*block:(b+1)*block]...)
		}
		for r := 0; r < n; r++ {
			recv := msgs[((r-1)%n+n)%n] // from predecessor
			b := ((r-1-s)%n + n) % n
			for k := range recv {
				cur[r][b*block+k] += recv[k]
			}
		}
	}
	owned := make([]int, n)
	blocks := make([][]float64, n)
	for r := 0; r < n; r++ {
		b := (r + 1) % n
		owned[r] = b
		blocks[r] = cur[r][b*block : (b+1)*block]
	}
	return owned, blocks
}

func TestRingReduceScatterMessageLevel(t *testing.T) {
	for _, n := range []int{2, 3, 4, 8} {
		L := n * 4
		data := make([][]float64, n)
		want := make([]float64, L)
		for i := range data {
			data[i] = make([]float64, L)
			for j := range data[i] {
				data[i][j] = float64(i*31 + j)
				want[j] += data[i][j]
			}
		}
		owned, blocks := ringReduceScatterMsg(data)
		seen := make(map[int]bool)
		block := L / n
		for r := 0; r < n; r++ {
			b := owned[r]
			if seen[b] {
				t.Fatalf("n=%d: block %d owned twice", n, b)
			}
			seen[b] = true
			for k, v := range blocks[r] {
				if v != want[b*block+k] {
					t.Fatalf("n=%d node %d block %d elem %d = %v, want %v", n, r, b, k, v, want[b*block+k])
				}
			}
		}
	}
}

// ringAllToAllMsg simulates the relay-based ring all-to-all: at step s each
// node forwards every held foreign block one hop; arrived blocks stop.
// Returns per-step per-node message sizes (in blocks) for comparison with
// StepBytes, plus final delivery status.
func ringAllToAllMsg(n int) (stepBlocks []int, delivered bool) {
	// held[r] = blocks (src,dst) currently at node r, dst != r.
	type blk struct{ src, dst int }
	held := make([][]blk, n)
	arrived := make(map[blk]int)
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			held[src] = append(held[src], blk{src, dst})
		}
	}
	for s := 0; s < n-1; s++ {
		moving := make([][]blk, n)
		for r := 0; r < n; r++ {
			moving[r] = held[r]
			held[r] = nil
		}
		if s == 0 {
			stepBlocks = append(stepBlocks, len(moving[0]))
		} else {
			stepBlocks = append(stepBlocks, len(moving[0]))
		}
		for r := 0; r < n; r++ {
			next := (r + 1) % n
			for _, b := range moving[r] {
				if b.dst == next {
					arrived[b] = next
				} else {
					held[next] = append(held[next], b)
				}
			}
		}
	}
	delivered = len(arrived) == n*(n-1)
	for r := range held {
		if len(held[r]) != 0 {
			delivered = false
		}
	}
	return stepBlocks, delivered
}

func TestRingAllToAllMessageLevel(t *testing.T) {
	for _, n := range []int{2, 3, 4, 8} {
		stepBlocks, delivered := ringAllToAllMsg(n)
		if !delivered {
			t.Fatalf("n=%d: not all blocks delivered in %d steps", n, n-1)
		}
		p := Phase{Op: AllToAll, Size: n, Scale: 1}
		D := int64(n * n * 128) // block = 128n bytes
		for s, nb := range stepBlocks {
			wantBytes := p.StepBytes(s, D)
			gotBytes := int64(nb) * D / int64(n)
			if gotBytes != wantBytes {
				t.Errorf("n=%d step %d: message carries %d bytes, StepBytes says %d", n, s, gotBytes, wantBytes)
			}
		}
	}
}

func TestCompileNone(t *testing.T) {
	tp := mustTorus(t, 2, 2, 2)
	phases, err := Compile(None, tp, config.Baseline)
	if err != nil || phases != nil {
		t.Errorf("Compile(None) = %v, %v; want nil, nil", phases, err)
	}
}

func TestStepBytesNeverZero(t *testing.T) {
	p := Phase{Op: AllReduce, Size: 64, Scale: 1.0 / 64}
	if got := p.StepBytes(0, 10); got < 1 {
		t.Errorf("tiny chunk step bytes = %d, want >= 1", got)
	}
}

// The N-dimensional torus extension must produce correct all-reduce and
// all-to-all schedules too.
func TestTorusNDCollectiveCorrectness(t *testing.T) {
	nd, err := topology.NewTorusND([]int{2, 2, 2, 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	nd5, err := topology.NewTorusND([]int{2, 2, 2, 2, 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range []topology.Topology{nd, nd5} {
		for _, alg := range []config.Algorithm{config.Baseline, config.Enhanced} {
			phases, err := Compile(AllReduce, tp, alg)
			if err != nil {
				t.Fatal(err)
			}
			const L = 256
			n := tp.NumNPUs()
			initial := make([][]float64, n)
			want := make([]float64, L)
			for i := range initial {
				initial[i] = make([]float64, L)
				for j := range initial[i] {
					initial[i][j] = float64(i ^ j)
					want[j] += initial[i][j]
				}
			}
			states, err := ExecuteData(phases, tp, initial)
			if err != nil {
				t.Fatalf("%s/%v: %v", tp.Name(), alg, err)
			}
			for i, s := range states {
				if s.Lo != 0 || s.Hi != L {
					t.Fatalf("%s/%v node %d: range [%d,%d)", tp.Name(), alg, i, s.Lo, s.Hi)
				}
				for j, v := range s.Vals {
					if v != want[j] {
						t.Fatalf("%s/%v node %d elem %d: %v != %v", tp.Name(), alg, i, j, v, want[j])
					}
				}
			}
		}
		// All-to-all routing delivers on N-D tori as well.
		phases, err := Compile(AllToAll, tp, config.Baseline)
		if err != nil {
			t.Fatal(err)
		}
		for src := 0; src < tp.NumNPUs(); src++ {
			for dst := 0; dst < tp.NumNPUs(); dst++ {
				hops := RouteAllToAll(phases, tp, topology.Node(src), topology.Node(dst))
				if hops[len(hops)-1] != topology.Node(dst) {
					t.Fatalf("%s: block %d->%d ends at %d", tp.Name(), src, dst, hops[len(hops)-1])
				}
			}
		}
	}
}

// Hierarchical collectives over the scale-out extension: a 4-phase
// (baseline) or 5-phase (enhanced) all-reduce spanning pods must still
// produce the global sum, and multi-phase all-to-all must deliver across
// pods.
func TestScaleOutCollectiveCorrectness(t *testing.T) {
	pod := mustTorus(t, 2, 2, 2)
	so, err := topology.NewScaleOut(pod, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []config.Algorithm{config.Baseline, config.Enhanced} {
		phases, err := Compile(AllReduce, so, alg)
		if err != nil {
			t.Fatal(err)
		}
		if last := phases[len(phases)-1]; alg == config.Baseline &&
			(last.Dim != topology.DimScaleOut || !last.Direct) {
			t.Errorf("baseline last phase = %v, want direct scale-out", last)
		}
		const L = 256
		n := so.NumNPUs()
		initial := make([][]float64, n)
		want := make([]float64, L)
		for i := range initial {
			initial[i] = make([]float64, L)
			for j := range initial[i] {
				initial[i][j] = float64(3*i + j)
				want[j] += initial[i][j]
			}
		}
		states, err := ExecuteData(phases, so, initial)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		for i, s := range states {
			if s.Lo != 0 || s.Hi != L {
				t.Fatalf("%v node %d: range [%d,%d)", alg, i, s.Lo, s.Hi)
			}
			for j, v := range s.Vals {
				if v != want[j] {
					t.Fatalf("%v node %d elem %d: %v != %v", alg, i, j, v, want[j])
				}
			}
		}
	}
	phases, err := Compile(AllToAll, so, config.Baseline)
	if err != nil {
		t.Fatal(err)
	}
	for src := 0; src < so.NumNPUs(); src++ {
		for dst := 0; dst < so.NumNPUs(); dst++ {
			hops := RouteAllToAll(phases, so, topology.Node(src), topology.Node(dst))
			if hops[len(hops)-1] != topology.Node(dst) {
				t.Fatalf("block %d->%d ends at %d", src, dst, hops[len(hops)-1])
			}
		}
	}
}

// The switch-based topology (NVSwitch-style future work) must compute
// correct collectives too: both dims are direct exchanges.
func TestSwitchedCollectiveCorrectness(t *testing.T) {
	sw, err := topology.NewSwitched(4, 4, topology.DefaultSwitchedConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []config.Algorithm{config.Baseline, config.Enhanced} {
		phases, err := Compile(AllReduce, sw, alg)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range phases {
			if !p.Direct {
				t.Fatalf("%v: phase %v should be direct on a switched topology", alg, p)
			}
		}
		const L = 64
		n := sw.NumNPUs()
		initial := make([][]float64, n)
		want := make([]float64, L)
		for i := range initial {
			initial[i] = make([]float64, L)
			for j := range initial[i] {
				initial[i][j] = float64(i + 7*j)
				want[j] += initial[i][j]
			}
		}
		states, err := ExecuteData(phases, sw, initial)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		for i, s := range states {
			for j, v := range s.Vals {
				if s.Lo != 0 || s.Hi != L || v != want[j] {
					t.Fatalf("%v node %d: wrong result", alg, i)
				}
			}
		}
	}
	phases, err := Compile(AllToAll, sw, config.Baseline)
	if err != nil {
		t.Fatal(err)
	}
	for src := 0; src < sw.NumNPUs(); src++ {
		for dst := 0; dst < sw.NumNPUs(); dst++ {
			hops := RouteAllToAll(phases, sw, topology.Node(src), topology.Node(dst))
			if hops[len(hops)-1] != topology.Node(dst) {
				t.Fatalf("block %d->%d ends at %d", src, dst, hops[len(hops)-1])
			}
		}
	}
}

// Scoped collectives: an all-reduce restricted to the vertical dimension
// reduces within each vertical group only — hybrid parallelism's
// model-parallel exchange (§III-A).
func TestScopedAllReduce(t *testing.T) {
	tp := mustTorus(t, 2, 2, 2)
	phases, err := CompileScoped(AllReduce, tp, config.Baseline, []topology.Dim{topology.DimVertical})
	if err != nil {
		t.Fatal(err)
	}
	if len(phases) != 1 || phases[0].Dim != topology.DimVertical {
		t.Fatalf("phases = %v, want single vertical phase", phases)
	}
	const L = 16
	n := tp.NumNPUs()
	initial := make([][]float64, n)
	for i := range initial {
		initial[i] = make([]float64, L)
		for j := range initial[i] {
			initial[i][j] = float64(i*100 + j)
		}
	}
	states, err := ExecuteData(phases, tp, initial)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		group := tp.Group(topology.DimVertical, topology.Node(i))
		want := make([]float64, L)
		for _, g := range group {
			for j := range want {
				want[j] += float64(int(g)*100 + j)
			}
		}
		for j, v := range states[i].Vals {
			if v != want[j] {
				t.Fatalf("node %d elem %d = %v, want group sum %v", i, j, v, want[j])
			}
		}
	}
}

func TestScopedCompileErrors(t *testing.T) {
	tp := mustTorus(t, 1, 8, 1) // local and vertical are size 1
	if _, err := CompileScoped(AllReduce, tp, config.Baseline, []topology.Dim{topology.DimLocal}); err == nil {
		t.Error("expected error for scope selecting only size-1 dims")
	}
	// Enhanced falls back when the scope excludes the local dimension.
	tp2 := mustTorus(t, 4, 4, 4)
	phases, err := CompileScoped(AllReduce, tp2, config.Enhanced, []topology.Dim{topology.DimVertical, topology.DimHorizontal})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range phases {
		if p.Op != AllReduce || p.Scale != 1 {
			t.Errorf("scoped enhanced without local dim should fall back to per-dim AR, got %v", p)
		}
	}
	// Enhanced applies when the scope includes local + one inter dim.
	phases, err = CompileScoped(AllReduce, tp2, config.Enhanced, []topology.Dim{topology.DimLocal, topology.DimHorizontal})
	if err != nil {
		t.Fatal(err)
	}
	if len(phases) != 3 || phases[0].Op != ReduceScatter || phases[2].Op != AllGather {
		t.Errorf("scoped enhanced = %v, want RS/AR/AG", phases)
	}
}
