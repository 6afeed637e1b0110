// Command perfbench is the simulator's benchmark. It runs a fixed number
// of rounds of one workload from a seed and prints its end-to-end
// metrics, or with --trace 1 its per-layer metrics, as the last line of
// standard output:
//
//	bash perfbench/run.sh --workload collectives-packet --seed 1 --seconds 20 --trace 0
//
// Every number it reports is host CPU time or host memory: what the
// simulator costs to run. Simulated cycles are outputs, checked against recorded
// expectations and independent references; see perfbench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// runner executes one workload's ops on platforms it built at setup.
type runner interface {
	// op runs one op; tr is nil on the untraced path.
	op(it item, tr *tracer) *opRecord
	// reference computes the output of (template, variant) by a direct
	// facade run; --record stores its digest.
	reference(t, v int) (string, error)
	// tracePlatforms times the platform constructors (traced run only).
	tracePlatforms(tr *tracer) error
	// check applies the workload's own output checks after measurement,
	// failing the ops whose outputs do not hold; an error fails the run.
	check(ops []*opRecord) ([]string, error)
	close()
}

// workload is one benchmark workload.
type workload struct {
	name string
	// why records what the workload stresses and what it bypasses.
	why       string
	templates []string
	variants  int
	// repeats is the resubmissions of each template per round. The
	// daemon's two make hits the majority, so the median of all its ops
	// falls inside the hit latencies, not in the gap between hits and
	// misses.
	repeats int
	// procs is GOMAXPROCS for the run. Ops are timed in process CPU time
	// (see cpuNow), to which a P with no work of its own adds only
	// idle-priority garbage-collection marking and scheduler spinning,
	// whose amount follows the host's scheduling: on a shared 2-vCPU Xeon
	// host, one P cut the run-to-run spread of daemon-mix's ops_per_s
	// from 0.17 to 0.02 of its median. The
	// partitioned engine of fabric-large has work for one P per worker;
	// there two Ps halved the spread of op_p50_ms against one.
	procs int
	// roundSeconds sets the run length: a run of --seconds s measures
	// s/roundSeconds whole rounds. It is one and a half to two times the
	// host CPU time a round takes on a quiet 2-vCPU Xeon host, which
	// leaves room for the same host when its co-tenants slow it. It is a
	// constant of the benchmark, so every commit measures the same rounds
	// whatever its speed.
	roundSeconds float64
	setup        func() (runner, error)
}

// rounds is the number of rounds an untraced run of seconds measures.
func (w *workload) rounds(seconds int) int {
	return min(w.variants, max(1, int(float64(seconds)/w.roundSeconds)))
}

// workloads lists the benchmark's workloads. Each is a closed loop with
// one client: the op's host CPU time is then the process's (see cpuNow).
func workloads() []*workload {
	workers := min(2, runtime.NumCPU()) // pdes workers in fabric-large
	names := func(n int, name func(int) string) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = name(i)
		}
		return out
	}
	return []*workload{
		{
			name: "collectives-packet",
			why: "eventq, noc and system do nearly all the host work and modelgen, graph and service none; " +
				"uncongested single-chunk runs sit beside congested multi-chunk runs, so a change that helps one regime and costs the other shows as op_p50_ms against op_tail_ms",
			templates: names(len(collTemplates), func(i int) string { return collTemplates[i].name }),
			variants:  16, repeats: 1, procs: 1, roundSeconds: 1.5, setup: setupCollectives,
		},
		{
			name: "training-fast",
			why: "workload, graph, modelgen, compute and the chunk scheduler carry the cost while noc and pdes do nothing: " +
				"the bypass workload for network-layer changes, and where retiring workload.Trainer must show no loss",
			templates: names(len(trainTemplates), func(i int) string { return trainTemplates[i].name }),
			variants:  trainVariants, repeats: 1, procs: 1, roundSeconds: 1.25, setup: setupTraining,
		},
		{
			name: "daemon-mix",
			why: "the service path (decode, validate, canonicalize, hash, cache, pool, marshal) is the whole cost of a hit and a thin layer over a simulation on a miss; " +
				"reads beside writes show a cache or canonicalization change that speeds one and slows the other",
			templates: names(len(daemonTemplates), func(i int) string { return daemonTemplates[i].name }),
			variants:  daemonVariants, repeats: 2, procs: 1, roundSeconds: 0.06, setup: setupDaemon,
		},
		{
			name: "fabric-large",
			why: "the only workload where pdes does the work and host memory peaks; " +
				"without it pdes goes unmeasured and the burst-collapse share cannot be split from the sharding share",
			templates: names(len(fabricTemplates), func(i int) string { return fabricTemplates[i].name }),
			variants:  16, repeats: 1, procs: workers, roundSeconds: 2.5,
			setup: func() (runner, error) { return setupFabric(workers) },
		},
	}
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	root := flag.String("root", ".", "root of the simulator checkout")
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 20, "seconds of measurement; sets the number of rounds measured")
	trace := flag.Int("trace", 0, "1 runs the traced run and prints per-layer metrics")
	rec := flag.Bool("record", false, "record the expected output digests of every input of the workload")
	flag.Parse()
	if err := run(*root, *name, *seed, *seconds, *trace == 1, *rec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(root, name string, seed int64, seconds int, trace, rec bool) error {
	var w *workload
	var known []string
	for _, c := range workloads() {
		known = append(known, c.name)
		if c.name == name {
			w = c
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(known, ", "))
	}
	runtime.GOMAXPROCS(w.procs)
	debug.SetGCPercent(gcPercent)
	stamp, err := environment(root)
	if err != nil {
		return err
	}
	fmt.Printf("environment: %s\n", stamp)
	fmt.Printf("workload %s: %s\n", w.name, w.why)

	if rec {
		r, err := w.setup()
		if err != nil {
			return err
		}
		defer r.close()
		return record(root, w, r)
	}
	exp, err := loadExpected(root, w)
	if err != nil {
		return err
	}

	// Set up fifteen times and keep the last: setup_s is the median. One
	// set-up takes milliseconds, so a median of few is noise.
	const setups = 15
	var setupS []float64
	var r runner
	for i := 0; i < setups; i++ {
		if r != nil {
			r.close()
		}
		t0 := cpuNow()
		if r, err = w.setup(); err != nil {
			return err
		}
		setupS = append(setupS, (cpuNow() - t0).Seconds())
	}
	defer r.close()

	st := newStream(seed, len(w.templates), w.variants, w.repeats)
	next := 0
	// A run that takes several times its calibrated length has hit a
	// broken or overloaded host; it fails rather than report.
	deadline := time.Now().Add(capFactor * time.Duration(seconds) * time.Second)
	untraced := func(it item) *opRecord { return r.op(it, nil) }

	var res result
	var notes []string
	if !trace {
		ph, err := runPhase(st, &next, w.rounds(seconds), deadline, untraced)
		if err != nil {
			return err
		}
		rss := peakRSSMB()
		notes, err = checkAll(r, ph.ops, exp, w)
		if err != nil {
			return err
		}
		res = endToEnd(ph, summarize(setupS).p50, rss)
	} else {
		res, notes, err = tracedRun(r, w, st, &next, w.rounds(seconds), deadline, exp)
		if err != nil {
			return err
		}
	}
	for _, n := range notes {
		fmt.Println(n)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// checkAll runs the shared and the workload's own output checks.
func checkAll(r runner, ops []*opRecord, exp *expected, w *workload) ([]string, error) {
	checkOutputs(ops, exp, w.templates)
	notes, err := r.check(ops)
	if err != nil {
		return nil, fmt.Errorf("check failed: %w", err)
	}
	out := []string{"checks: every output equals its recorded digest; every resubmission reproduces its first output"}
	for _, n := range notes {
		out = append(out, "checks: "+n)
	}
	var digests []string
	for _, o := range ops {
		if o.failed() {
			out = append(out, fmt.Sprintf("failed: %s variant %d: %v", w.templates[o.it.Tmpl], o.it.Variant, o.err))
			continue
		}
		digests = append(digests, digest(o.out))
	}
	out = append(out, "output digest of the run: "+digest(strings.Join(digests, ",")))
	return out, nil
}

// endToEnd computes the end-to-end metrics of an untraced phase. Times
// are host CPU time (see cpuNow).
func endToEnd(ph phase, setupS, rssMB float64) result {
	var all, hit, miss []float64
	failed := 0
	for _, o := range ph.ops {
		l := o.latency()
		all = append(all, l)
		if o.it.Repeat {
			hit = append(hit, l)
		} else {
			miss = append(miss, l)
		}
		if o.failed() {
			failed++
		}
	}
	n := len(ph.ops)
	ok := n - failed
	m := map[string]metricValue{
		"setup_s":     {setupS, "s"},
		"ops_per_s":   {float64(ok) / ph.cpu.Seconds(), "1/s"},
		"peak_rss_mb": {rssMB, "MB"},
		"ok_ratio":    {float64(ok) / float64(n), "ratio"},
	}
	for _, d := range []struct {
		prefix string
		xs     []float64
	}{{"op", all}, {"hit", hit}, {"miss", miss}} {
		s := summarize(d.xs)
		m[d.prefix+"_p50_ms"] = metricValue{finite(s.p50), "ms"}
		m[d.prefix+"_tail_ms"] = metricValue{finite(s.tail), "ms"}
		fmt.Printf("%s latency: p50 %.4f ms, tail p%.1f %.4f ms with %d samples beyond (median of %d blocks), %d samples\n",
			d.prefix, s.p50, s.pct, s.tail, s.beyond, s.blocks, s.n)
	}
	fmt.Printf("measured %d rounds, %d ops (%d failed) in %.3f s of host CPU time\n", ph.rounds, n, failed, ph.cpu.Seconds())
	return result{Correct: failed == 0, Attempted: n, Failed: failed, Metrics: m}
}

// finite maps the +Inf latency of failed ops to a large finite sentinel,
// which JSON can carry.
func finite(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return 1e12
	}
	return v
}

// gcPercent is the garbage collector's GOGC for the run. The workloads
// keep a few MB live, so at the default of 100 the 4 MB minimum heap goal
// starts a collection every 2 MB or so allocated, and how those
// collections fall against the op stream depends on the inputs: on
// daemon-mix two seeds read 343 and 407 ops_per_s, run after run. At 400
// the heap grows to five times what was live at the last collection, so
// peak_rss_mb hangs on whether that collection fell inside a large op or
// between two. Five seeds run at 400 and 200 in turn read 77 to 91 MB
// and 54 to 56 MB on fabric-large, 37 to 45 MB and 26.5 to 27.3 MB on
// collectives-packet.
const gcPercent = 200

// capFactor is how many times its --seconds a run may measure before it
// fails.
const capFactor = 4

// tracedRun measures three stretches of rounds on the same stream: plain
// (the base of bench.trace_overhead), profiled (CPU shares and allocation
// per op, with no layer timers), and layer-timed. Of the untraced run's
// rounds, plain and profiled each take a quarter and layer-timed an
// eighth, which its timers slow about threefold.
func tracedRun(r runner, w *workload, st *stream, next *int, rounds int, deadline time.Time, exp *expected) (result, []string, error) {
	untraced := func(it item) *opRecord { return r.op(it, nil) }
	plain, err := runPhase(st, next, max(1, rounds/4), deadline, untraced)
	if err != nil {
		return result{}, nil, err
	}

	tr := newTracer()
	var m0, m1 runtime.MemStats
	prof, err := startProfile()
	if err != nil {
		return result{}, nil, err
	}
	runtime.ReadMemStats(&m0)
	profiled, err := runPhase(st, next, max(1, rounds/4), deadline, untraced)
	runtime.ReadMemStats(&m1)
	if perr := prof.stop(tr); err == nil {
		err = perr
	}
	if err != nil {
		return result{}, nil, err
	}
	nops := float64(len(profiled.ops))
	tr.add("runtime.alloc_mb_per_op", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20)/nops)
	tr.add("runtime.mallocs_per_op", float64(m1.Mallocs-m0.Mallocs)/nops)

	if err := r.tracePlatforms(tr); err != nil {
		return result{}, nil, err
	}
	traced, err := runPhase(st, next, max(1, rounds/8), deadline, func(it item) *opRecord { return r.op(it, tr) })
	if err != nil {
		return result{}, nil, err
	}
	if d, ok := r.(*daemonRunner); ok {
		if err := d.serviceStats(tr); err != nil {
			return result{}, nil, err
		}
	}
	rate := func(p phase) float64 { return float64(len(p.ops)) / p.cpu.Seconds() }
	tr.add("bench.trace_overhead", rate(traced)/rate(plain))

	ops := append(append(append([]*opRecord(nil), plain.ops...), profiled.ops...), traced.ops...)
	notes, err := checkAll(r, ops, exp, w)
	if err != nil {
		return result{}, nil, err
	}
	failed := 0
	for _, o := range ops {
		if o.failed() {
			failed++
		}
	}
	metrics, na := layerReport(tr)
	notes = append(notes,
		fmt.Sprintf("traced run: %d plain, %d profiled and %d layer-timed ops", len(plain.ops), len(profiled.ops), len(traced.ops)),
		"per-layer metrics that do not apply to "+w.name+" (reported as 0): "+strings.Join(na, ", "))
	var names []string
	for k := range metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		notes = append(notes, fmt.Sprintf("layer %-28s %14.4f %s", k, metrics[k].Value, metrics[k].Unit))
	}
	return result{Correct: failed == 0, Attempted: len(ops), Failed: failed, Metrics: metrics}, notes, nil
}

// peakRSSMB is the peak resident memory of this process.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
