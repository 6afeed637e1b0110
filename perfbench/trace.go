package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime/pprof"
	"sort"
	"sync/atomic"

	"astrasim/internal/config"
	"astrasim/internal/eventq"
	"astrasim/internal/fastnet"
	"astrasim/internal/noc"
	"astrasim/internal/system"
	"astrasim/internal/topology"
)

// probeCalls counts every use of a layer timer or the profiler. The
// untraced path must leave it at zero (pinned by a test).
var probeCalls atomic.Int64

// tracer collects per-layer samples in the traced run. It times calls
// into each layer's public functions from outside; no layer is edited.
type tracer struct {
	samples map[string][]float64
}

func newTracer() *tracer {
	probeCalls.Add(1)
	return &tracer{samples: map[string][]float64{}}
}

// add records one sample of a per-layer metric.
func (t *tracer) add(name string, v float64) {
	probeCalls.Add(1)
	t.samples[name] = append(t.samples[name], v)
}

// layerMetric is one per-layer metric: how its samples fold into the
// reported value. Times fold by median, counts by mean per op.
type layerMetric struct {
	name, unit string
	fold       string // "median", "mean" or "last"
}

var layerMetrics = []layerMetric{
	{"facade.platform_ms", "ms", "median"},
	{"facade.run_overhead_ms", "ms", "median"},
	{"system.instance_ms", "ms", "median"},
	{"system.issue_us", "us", "median"},
	{"system.self_ms", "ms", "median"},
	{"system.chunks", "count", "mean"},
	{"system.msgs", "count", "mean"},
	{"system.queue_delay_cycles", "cycles", "mean"},
	{"eventq.events", "count", "mean"},
	{"eventq.ns_per_event", "ns", "median"},
	{"eventq.pending_max", "count", "mean"},
	{"eventq.pending_p50", "count", "mean"},
	{"noc.replay_ms", "ms", "median"},
	{"noc.packets", "count", "mean"},
	{"noc.bytes_intra", "bytes", "mean"},
	{"noc.bytes_inter", "bytes", "mean"},
	{"noc.blocked_cycles", "cycles", "mean"},
	{"noc.peak_queue", "count", "mean"},
	{"noc.busy_share_inter", "share", "mean"},
	{"fastnet.replay_ms", "ms", "median"},
	{"pdes.windows", "count", "mean"},
	{"pdes.events_per_window", "count", "mean"},
	{"pdes.shard_imbalance", "ratio", "mean"},
	{"workload.train_ms", "ms", "median"},
	{"graph.compile_ms", "ms", "median"},
	{"graph.run_ms", "ms", "median"},
	{"graph.nodes", "count", "mean"},
	{"modelgen.compile_ms", "ms", "median"},
	{"modelgen.comm_bytes", "bytes", "mean"},
	{"service.hit_overhead_us", "us", "median"},
	{"service.miss_overhead_ms", "ms", "median"},
	{"service.hit_ratio", "ratio", "last"},
	{"service.collapsed", "count", "last"},
	{"service.runs", "count", "last"},
	{"runtime.alloc_mb_per_op", "MB", "last"},
	{"runtime.mallocs_per_op", "count", "last"},
	{"eventq.cpu_share", "share", "last"},
	{"noc.cpu_share", "share", "last"},
	{"fastnet.cpu_share", "share", "last"},
	{"pdes.cpu_share", "share", "last"},
	{"system.cpu_share", "share", "last"},
	{"collectives.cpu_share", "share", "last"},
	{"workload.cpu_share", "share", "last"},
	{"graph.cpu_share", "share", "last"},
	{"modelgen.cpu_share", "share", "last"},
	{"compute.cpu_share", "share", "last"},
	{"service.cpu_share", "share", "last"},
	{"runtime.cpu_share", "share", "last"},
	{"bench.trace_overhead", "ratio", "last"},
}

// reduce folds a metric's samples; ok is false when the metric has no
// samples, i.e. does not apply to the workload.
func (m layerMetric) reduce(xs []float64) (v float64, ok bool) {
	if len(xs) == 0 {
		return 0, false
	}
	switch m.fold {
	case "median":
		return summarize(xs).p50, true
	case "mean":
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs)), true
	default:
		return xs[len(xs)-1], true
	}
}

// captured is one message the system layer injected, recorded through
// the network's public SetOnSend seam for replay into a bare network.
type captured struct {
	at    eventq.Time
	src   topology.Node
	dst   topology.Node
	bytes int64
	path  []topology.LinkID
}

func capture(net system.Network) *[]captured {
	var msgs []captured
	net.SetOnSend(func(m *noc.Message) {
		msgs = append(msgs, captured{at: m.Injected, src: m.Src, dst: m.Dst, bytes: m.Bytes, path: m.Path})
	})
	return &msgs
}

// replay re-injects msgs at their recorded times into a bare network of
// the given backend and returns the host milliseconds the network took.
func replay(topo topology.Topology, netCfg config.Network, backend config.Backend, msgs []captured) (float64, error) {
	eng := eventq.New()
	var send func(*noc.Message)
	if backend == config.FastBackend {
		fn, err := fastnet.New(eng, topo, netCfg)
		if err != nil {
			return 0, err
		}
		send = fn.Send
	} else {
		nn, err := noc.New(eng, topo, netCfg)
		if err != nil {
			return 0, err
		}
		send = nn.Send
	}
	t0 := cpuNow()
	if len(msgs) == 0 {
		return cpuSince(t0), nil
	}
	// One pending injection event at a time, as the system layer's own
	// sends are, so the replay's heap holds only network events.
	i := 0
	var inject eventq.CallFunc
	inject = func(_, _ any) {
		for at := msgs[i].at; i < len(msgs) && msgs[i].at == at; i++ {
			c := msgs[i]
			send(&noc.Message{Src: c.src, Dst: c.dst, Bytes: c.bytes, Path: c.path})
		}
		if i < len(msgs) {
			eng.CallAt(msgs[i].at, inject, nil, nil)
		}
	}
	eng.CallAt(msgs[0].at, inject, nil, nil)
	eng.Run()
	return cpuSince(t0), nil
}

// driveSampled runs eng to quiescence in slices of simulated time,
// sampling the event-heap depth between slices, and returns the host
// milliseconds spent in the engine.
func driveSampled(eng *eventq.Engine, tr *tracer) float64 {
	const slice = 2048
	var depth []float64
	t0 := cpuNow()
	for {
		next, ok := eng.NextAt()
		if !ok {
			break
		}
		eng.RunUntil(next + slice)
		depth = append(depth, float64(eng.Pending()))
	}
	ms := cpuSince(t0)
	if len(depth) > 0 {
		s := summarize(depth)
		tr.add("eventq.pending_p50", s.p50)
		mx := 0.0
		for _, d := range depth {
			mx = math.Max(mx, d)
		}
		tr.add("eventq.pending_max", mx)
	}
	return ms
}

// firedAll sums fired events over the main engine and any pdes shards.
func firedAll(inst *system.Instance) uint64 {
	n := inst.Eng.Fired()
	if inst.Par != nil {
		for _, sh := range inst.Par.Shards() {
			n += sh.Fired()
		}
	}
	return n
}

// addEngineStats records the event-core and pdes figures of a finished
// instance whose engine ran for runMs host milliseconds.
func addEngineStats(tr *tracer, inst *system.Instance, runMs float64) {
	ev := firedAll(inst)
	tr.add("eventq.events", float64(ev))
	if ev > 0 {
		tr.add("eventq.ns_per_event", runMs*1e6/float64(ev))
	}
	if inst.Par == nil {
		return
	}
	w := inst.Par.Windows()
	tr.add("pdes.windows", float64(w))
	var total, busiest uint64
	shards := inst.Par.Shards()
	for _, sh := range shards {
		total += sh.Fired()
		if sh.Fired() > busiest {
			busiest = sh.Fired()
		}
	}
	if w > 0 {
		tr.add("pdes.events_per_window", float64(ev)/float64(w))
	}
	if total > 0 {
		tr.add("pdes.shard_imbalance", float64(busiest)/(float64(total)/float64(len(shards))))
	}
}

// addNocStats records the packet network's link counters.
func addNocStats(tr *tracer, inst *system.Instance, until eventq.Time) {
	nn, ok := inst.Net.(*noc.Network)
	if !ok {
		return
	}
	var packets uint64
	var blocked eventq.Time
	peak := 0
	for id := range inst.Topo.Links() {
		st := nn.LinkStatsFor(topology.LinkID(id))
		packets += st.Packets
		blocked += st.BlockedCycles
		if st.PeakQueue > peak {
			peak = st.PeakQueue
		}
	}
	intra, inter, _ := nn.TotalBytesByClass()
	tr.add("noc.packets", float64(packets))
	tr.add("noc.blocked_cycles", float64(blocked))
	tr.add("noc.peak_queue", float64(peak))
	tr.add("noc.bytes_intra", float64(intra))
	tr.add("noc.bytes_inter", float64(inter))
	if u, ok := nn.UtilizationByClass(until)[topology.InterPackage]; ok {
		tr.add("noc.busy_share_inter", u.AvgBusy)
	}
}

// profile is a CPU profile of the benchmark process, taken with
// runtime/pprof while the program runs unmodified.
type profile struct{ buf bytes.Buffer }

func startProfile() (*profile, error) {
	probeCalls.Add(1)
	p := &profile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("starting CPU profile: %w", err)
	}
	return p, nil
}

// stop ends the profile and records each module's share of its samples.
func (p *profile) stop(tr *tracer) error {
	pprof.StopCPUProfile()
	shares, err := cpuShares(p.buf.Bytes())
	if err != nil {
		return err
	}
	for _, m := range cpuModules {
		tr.add(m+".cpu_share", shares[m])
	}
	return nil
}

// layerReport folds the traced samples into the per-layer metrics and
// lists the metrics that do not apply to the workload.
func layerReport(tr *tracer) (map[string]metricValue, []string) {
	out := map[string]metricValue{}
	var na []string
	for _, m := range layerMetrics {
		v, ok := m.reduce(tr.samples[m.name])
		if !ok {
			na = append(na, m.name)
		}
		out[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	sort.Strings(na)
	return out, na
}
