package main

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"
)

func TestTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, tc := range []struct {
		n      int
		tail   float64
		pct    float64
		beyond int
		p50    float64
		blocks int
	}{
		{n: 100, tail: 90, pct: 90, beyond: 10, p50: 50.5, blocks: 1},
		{n: 399, tail: 389, pct: 100 * 389.0 / 399, beyond: 10, p50: 200, blocks: 1},
		// Five blocks of 200 in issue order, 1000..801 down to 200..1:
		// their tails are 990, 790, 590, 390 and 190.
		{n: 1000, tail: 590, pct: 95, beyond: 10, p50: 500.5, blocks: 5},
		{n: 11, tail: 1, pct: 100.0 / 11, beyond: 10, p50: 6, blocks: 1},
		{n: 20, tail: 10, pct: 50, beyond: 10, p50: 10.5, blocks: 1},
		// Ten samples or fewer: no percentile has ten beyond it, so the
		// maximum is reported with none beyond.
		{n: 10, tail: 10, pct: 100, beyond: 0, p50: 5.5, blocks: 1},
		{n: 1, tail: 1, pct: 100, beyond: 0, p50: 1, blocks: 1},
	} {
		s := summarize(seq(tc.n))
		if s.tail != tc.tail || math.Abs(s.pct-tc.pct) > 1e-9 || s.beyond != tc.beyond || s.p50 != tc.p50 || s.n != tc.n || s.blocks != tc.blocks {
			t.Errorf("n=%d: got tail %v at p%v with %d beyond over %d blocks, p50 %v; want %v at p%v with %d beyond over %d blocks, p50 %v",
				tc.n, s.tail, s.pct, s.beyond, s.blocks, s.p50, tc.tail, tc.pct, tc.beyond, tc.blocks, tc.p50)
		}
	}

	// Eleven outliers spread over 2000 samples set the eleventh-largest
	// of the whole set, but no block's tail.
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = 1
		if i%181 == 0 {
			xs[i] = 100
		}
	}
	if s := summarize(xs); s.tail != 1 || s.blocks != 10 {
		t.Errorf("scattered outliers: tail %v over %d blocks, want 1 over 10", s.tail, s.blocks)
	}
	// Failed ops (+Inf) past ten in every block make the tail a failure.
	for i := range xs {
		if i%16 == 0 {
			xs[i] = math.Inf(1)
		}
	}
	if s := summarize(xs); !math.IsInf(s.tail, 1) {
		t.Errorf("a failure in every sixteenth op: tail %v, want +Inf", s.tail)
	}
}

func TestFailureAccounting(t *testing.T) {
	// Timed-out ops fail in timeOp.
	saved := opTimeout
	opTimeout = time.Millisecond
	slow := timeOp(item{}, func() (string, error) { time.Sleep(3 * time.Millisecond); return "x", nil })
	opTimeout = saved
	if !slow.failed() || !strings.Contains(slow.err.Error(), "timed out") {
		t.Fatalf("slow op: err %v, want a time-out failure", slow.err)
	}

	// A check failure: an output whose digest is not the recorded one.
	exp := &expected{Variants: 1, Digests: map[string][]string{"a": {digest("good")}}}
	good := &opRecord{it: item{Tmpl: 0}, ms: 1, out: "good"}
	bad := &opRecord{it: item{Tmpl: 0, Repeat: true}, ms: 1, out: "bad"}
	checkOutputs([]*opRecord{good, bad}, exp, []string{"a"})
	if good.failed() || !bad.failed() {
		t.Fatalf("check: good failed=%v, bad failed=%v", good.failed(), bad.failed())
	}

	refused := &opRecord{it: item{Tmpl: 0}, ms: 0.5, err: errors.New("refused: status 429")}
	ops := []*opRecord{good, bad, refused, slow}
	for i := 0; i < 4; i++ {
		ops = append(ops, &opRecord{it: item{Repeat: i%2 == 0}, ms: 2, out: "good"})
	}
	res := endToEnd(phase{ops: ops, cpu: time.Second, rounds: 1}, 0.1, 10)
	if res.Attempted != 8 || res.Failed != 3 || res.Correct {
		t.Fatalf("attempted %d failed %d correct %v, want 8, 3, false", res.Attempted, res.Failed, res.Correct)
	}
	if got := res.Metrics["ok_ratio"].Value; got != 5.0/8 {
		t.Errorf("ok_ratio %v, want %v", got, 5.0/8)
	}
	if got := res.Metrics["ops_per_s"].Value; got != 5 {
		t.Errorf("ops_per_s %v, want 5 (failed ops are not completed)", got)
	}
	// Failed ops miss every latency limit: with 3 of 8 failed, the tail
	// (the maximum at this sample count) is the failure sentinel, and a
	// fast refusal does not pull the median down.
	if got := res.Metrics["op_tail_ms"].Value; got != finite(math.Inf(1)) {
		t.Errorf("op_tail_ms %v, want the failure sentinel", got)
	}
	if got := res.Metrics["op_p50_ms"].Value; got != 2 {
		t.Errorf("op_p50_ms %v, want 2", got)
	}
	if refused.latency() != math.Inf(1) || slow.latency() != math.Inf(1) || bad.latency() != math.Inf(1) {
		t.Error("a failed op must count as missing every latency limit")
	}
}

// generators returns every workload's input renderer without building
// its platforms.
func generators() map[string]func(t, v int) string {
	return map[string]func(t, v int) string{
		"collectives-packet": (&collRunner{cfgs: collTemplates}).input,
		"training-fast":      (&trainRunner{cfgs: trainTemplates}).input,
		"daemon-mix":         (&daemonRunner{cfgs: daemonTemplates}).input,
		"fabric-large":       (&fabricRunner{cfgs: fabricTemplates, workers: 2}).input,
	}
}

func generate(w *workload, seed int64, rounds int) string {
	gen := generators()[w.name]
	st := newStream(seed, len(w.templates), w.variants, w.repeats)
	var b strings.Builder
	for r := 0; r < rounds; r++ {
		for _, it := range st.round(r) {
			b.WriteString(gen(it.Tmpl, it.Variant))
			b.WriteString("\n")
		}
	}
	return b.String()
}

func TestGeneratorDeterminism(t *testing.T) {
	for _, w := range workloads() {
		rounds := min(w.variants, 12)
		a, b := generate(w, 1, rounds), generate(w, 1, rounds)
		if a != b {
			t.Errorf("%s: seed 1 generated different inputs twice", w.name)
		}
		if a == generate(w, 2, rounds) {
			t.Errorf("%s: seeds 1 and 2 generated identical inputs", w.name)
		}
	}
}

// TestStreamShape pins the round structure every workload relies on: each
// round issues every template once as a new input and the stream's number
// of times as a resubmission of an input issued before it in the run, and
// no new input repeats an earlier one.
func TestStreamShape(t *testing.T) {
	const templates, variants = 5, 16
	for _, reps := range []int{1, 2} {
		st := newStream(7, templates, variants, reps)
		issued := map[[2]int]bool{}
		for r := 0; r < variants; r++ {
			news, repeats := map[int]int{}, map[int]int{}
			for _, it := range st.round(r) {
				key := [2]int{it.Tmpl, it.Variant}
				if it.Repeat {
					repeats[it.Tmpl]++
					if !issued[key] {
						t.Fatalf("round %d resubmits %v before it was issued", r, key)
					}
					continue
				}
				news[it.Tmpl]++
				if issued[key] {
					t.Fatalf("round %d issues %v as new twice", r, key)
				}
				issued[key] = true
			}
			for tm := 0; tm < templates; tm++ {
				if news[tm] != 1 || repeats[tm] != reps {
					t.Fatalf("repeats %d, round %d: template %d issued %d new and %d resubmitted, want 1 and %d",
						reps, r, tm, news[tm], repeats[tm], reps)
				}
			}
		}
	}
}

// TestUntracedNeverProbes runs ops of three workloads on the untraced
// path and checks that no layer timer or profiler was touched.
func TestUntracedNeverProbes(t *testing.T) {
	coll, err := setupCollectives()
	if err != nil {
		t.Fatal(err)
	}
	train, err := setupTraining()
	if err != nil {
		t.Fatal(err)
	}
	d, err := setupDaemon()
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()

	before := probeCalls.Load()
	for _, c := range []struct {
		r  runner
		it item
	}{
		{coll, item{Tmpl: 9}},
		{train, item{Tmpl: 6}},
		{d, item{Tmpl: 0}},
		{d, item{Tmpl: 0, Repeat: true}},
	} {
		if rec := c.r.op(c.it, nil); rec.failed() {
			t.Fatalf("untraced op %+v: %v", c.it, rec.err)
		}
	}
	if got := probeCalls.Load() - before; got != 0 {
		t.Fatalf("untraced ops made %d layer-timer or profiler calls, want 0", got)
	}

	// The traced path does use them (the counter works).
	if rec := coll.op(item{Tmpl: 9}, newTracer()); rec.failed() {
		t.Fatal(rec.err)
	}
	if probeCalls.Load() == before {
		t.Fatal("the traced op made no layer-timer calls")
	}
}

// TestFixedRounds pins the run length: a stretch measures exactly the
// rounds it is given whatever the ops cost, and fails once it passes its
// wall-time cap.
func TestFixedRounds(t *testing.T) {
	for _, cost := range []time.Duration{0, 2 * time.Millisecond} {
		st := newStream(1, 3, 16, 1)
		next := 0
		ph, err := runPhase(st, &next, 4, time.Now().Add(time.Minute), func(it item) *opRecord {
			time.Sleep(cost)
			return &opRecord{it: it}
		})
		if err != nil || ph.rounds != 4 || next != 4 || len(ph.ops) != 4*3*2 {
			t.Fatalf("op cost %v: %d rounds, next %d, %d ops, err %v; want 4, 4, 24, nil", cost, ph.rounds, next, len(ph.ops), err)
		}
	}
	next := 0
	if _, err := runPhase(newStream(1, 3, 16, 1), &next, 4, time.Now().Add(-time.Second), func(it item) *opRecord {
		return &opRecord{it: it}
	}); err == nil {
		t.Fatal("a stretch past its wall-time cap must fail")
	}
	// The rounds follow --seconds alone, within [1, variants].
	for _, w := range workloads() {
		if lo, hi := w.rounds(0), w.rounds(1000); lo != 1 || hi != w.variants || w.rounds(20) < lo || w.rounds(20) > hi {
			t.Errorf("%s: rounds(0) %d, rounds(20) %d, rounds(1000) %d; variants %d", w.name, lo, w.rounds(20), hi, w.variants)
		}
	}
}

func TestModuleBuckets(t *testing.T) {
	for fn, want := range map[string]string{
		"astrasim/internal/eventq.(*Engine).Step":   "eventq",
		"astrasim/internal/noc.linkSerDone":         "noc",
		"astrasim/internal/system.(*chunk).advance": "system",
		"runtime.mallocgc":                          "runtime",
		"internal/runtime/maps.(*Map).getWithKey":   "runtime",
		"encoding/json.(*decodeState).object":       "",
		"astrasim/internal/cli.BuildTopology":       "",
		"main.main":                                 "",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
	// Stacks, innermost frame first: a sample goes to the innermost
	// simulator layer; runtime only gets stacks with no layer on them.
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"encoding/json.(*decodeState).object", "encoding/json.Unmarshal",
			"astrasim/internal/service.decodeSubmission", "net/http.HandlerFunc.ServeHTTP", "runtime.goexit"}, "service"},
		{[]string{"runtime.mallocgc", "runtime.newobject", "astrasim/internal/eventq.(*Engine).Schedule",
			"astrasim/internal/noc.(*Network).Send", "main.main", "runtime.main"}, "eventq"},
		{[]string{"crypto/sha256.block", "astrasim/internal/service.contentKey", "astrasim/internal/system.NewInstance"}, "service"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime"},
		{[]string{"runtime.mallocgc", "encoding/json.Marshal", "main.main", "runtime.main"}, "runtime"},
		{[]string{"encoding/json.Marshal", "main.main", "runtime.main"}, ""},
		{nil, ""},
	} {
		if got := bucketOf(tc.stack); got != tc.want {
			t.Errorf("bucketOf(%q) = %q, want %q", tc.stack, got, tc.want)
		}
	}
}

// TestCPUShares profiles ops and checks the bucketing reads the profile:
// shares are within [0, 1] and sum to at most 1, a simulation's samples
// reach eventq, and daemon cache hits, whose cost is standard-library
// work called from the service layer, reach service.
func TestCPUShares(t *testing.T) {
	coll, err := setupCollectives()
	if err != nil {
		t.Fatal(err)
	}
	d, err := setupDaemon()
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	if rec := d.op(item{Tmpl: 0}, nil); rec.failed() {
		t.Fatal(rec.err)
	}
	for _, c := range []struct {
		r     runner
		it    item
		layer string
	}{
		{coll, item{Tmpl: 1}, "eventq"},
		{d, item{Tmpl: 0, Repeat: true}, "service"},
	} {
		prof, err := startProfile()
		if err != nil {
			t.Fatal(err)
		}
		for t0 := time.Now(); time.Since(t0) < 500*time.Millisecond; {
			if rec := c.r.op(c.it, nil); rec.failed() {
				t.Fatal(rec.err)
			}
		}
		tr := newTracer()
		if err := prof.stop(tr); err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for _, m := range cpuModules {
			v := tr.samples[m+".cpu_share"]
			if len(v) != 1 || v[0] < 0 || v[0] > 1 {
				t.Fatalf("%s.cpu_share = %v", m, v)
			}
			sum += v[0]
		}
		if got := tr.samples[c.layer+".cpu_share"][0]; sum > 1+1e-9 || got == 0 {
			t.Fatalf("%s ops: shares sum to %v, %s.cpu_share %v", c.layer, sum, c.layer, got)
		}
	}
}
