package main

import (
	"fmt"

	"astrasim"
	"astrasim/internal/cli"
	"astrasim/internal/collectives"
	"astrasim/internal/config"
	"astrasim/internal/energy"
	"astrasim/internal/oracle"
	"astrasim/internal/system"
	"astrasim/internal/topology"
)

// collCfg is one collective template: a fabric, an op, a base size, a
// chunking, an algorithm and a scheduling policy. Its variants grow the
// size by up to 15/512, which changes the simulated output but hardly
// the host cost, so every seed's rounds cost alike.
type collCfg struct {
	name   string
	spec   string
	op     collectives.Op
	base   int64
	splits int
	alg    config.Algorithm
	pol    config.SchedulingPolicy
	// exact lifts the packets-per-message cap (every packet is an event).
	exact bool
}

// at returns the size of variant v.
func (c collCfg) at(v int) int64 {
	bytes := c.base * int64(512+v%16) / 512
	return bytes - bytes%64
}

func (c collCfg) input(v int) string {
	return fmt.Sprintf("%s op=%v bytes=%d splits=%d alg=%v policy=%v exact=%v",
		c.spec, c.op, c.at(v), c.splits, c.alg, c.pol, c.exact)
}

// collPlat is one configured fabric: the facade platform the op runs on,
// plus the same configuration resolved for direct calls into the layers.
type collPlat struct {
	cfg  collCfg
	sys  config.System
	net  config.Network
	topo topology.Topology
	plat *astrasim.Platform
}

func newCollPlat(c collCfg, backend config.Backend, intra int) (*collPlat, error) {
	net := config.DefaultNetwork()
	if c.exact {
		net.MaxPacketsPerMessage = 0
	}
	opts := []astrasim.Option{
		astrasim.WithSetSplits(c.splits), astrasim.WithAlgorithm(c.alg),
		astrasim.WithSchedulingPolicy(c.pol), astrasim.WithBackend(backend),
		astrasim.WithNetwork(net), astrasim.WithIntraParallel(intra),
	}
	plat, err := astrasim.NewPlatformFromSpec(c.spec, opts...)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", c.name, err)
	}
	sys := config.DefaultSystem()
	sys.PreferredSetSplits, sys.Algorithm, sys.SchedulingPolicy = c.splits, c.alg, c.pol
	sys.Backend, sys.IntraParallel = backend, intra
	topo, err := cli.BuildTopology(c.spec, cli.DefaultTopologyOptions(), &sys)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", c.name, err)
	}
	return &collPlat{cfg: c, sys: sys, net: net, topo: topo, plat: plat}, nil
}

func collOut(cycles uint64, intra, inter, scaleOut int64) string {
	return fmt.Sprintf("cycles=%d intra=%d inter=%d scaleout=%d", cycles, intra, inter, scaleOut)
}

// run is the untraced op: one facade collective.
func (cp *collPlat) run(bytes int64) (string, error) {
	run, err := cp.plat.RunCollectiveDetailed(cp.cfg.op, bytes)
	if err != nil {
		return "", err
	}
	return collOut(uint64(run.Duration()), run.IntraPackageBytes, run.InterPackageBytes, run.ScaleOutBytes), nil
}

// traced runs the op through the facade, then again through direct calls
// into the system, event-queue and network layers, timing each, and
// (with withReplay) replays the captured traffic into a bare network. It
// returns the facade's output and host milliseconds.
func (cp *collPlat) traced(tr *tracer, bytes int64, withReplay bool) (string, float64, error) {
	t0 := cpuNow()
	out, err := cp.run(bytes)
	facadeMs := cpuSince(t0)
	if err != nil {
		return "", 0, err
	}

	t0 = cpuNow()
	inst, err := system.NewInstance(cp.topo, cp.sys, cp.net)
	instMs := cpuSince(t0)
	if err != nil {
		return "", 0, err
	}
	msgs := capture(inst.Net)
	done := false
	t0 = cpuNow()
	h, err := inst.Sys.IssueCollective(cp.cfg.op, bytes, cp.cfg.op.String(), func(*system.Handle) { done = true })
	issueMs := cpuSince(t0)
	if err != nil {
		return "", 0, err
	}
	var runMs float64
	if inst.Par != nil {
		// The heap depth is sampled between RunUntil slices only on the
		// serial engine: a partitioned run's events live on shard engines.
		t0 = cpuNow()
		inst.Eng.Run()
		runMs = cpuSince(t0)
	} else {
		runMs = driveSampled(inst.Eng, tr)
	}
	if !done {
		return "", 0, fmt.Errorf("%s: direct-layer run did not complete", cp.cfg.name)
	}
	intra, inter, so := inst.Net.TotalBytesByClass()
	if direct := collOut(uint64(h.Duration()), intra, inter, so); direct != out {
		return "", 0, fmt.Errorf("%s: direct-layer run gave %s, facade %s", cp.cfg.name, direct, out)
	}

	// The facade's own work after the run: byte-class, energy and fault
	// accounting. Timed directly, since the difference of two whole-run
	// timings is dominated by their noise.
	t0 = cpuNow()
	inst.Net.TotalBytesByClass()
	energy.CommEnergy(inst.Net, energy.Default())
	inst.Net.DropStats()
	inst.Sys.RetransmittedBytes()
	tr.add("facade.run_overhead_ms", cpuSince(t0))
	tr.add("system.instance_ms", instMs)
	tr.add("system.issue_us", issueMs*1e3)
	tr.add("system.chunks", float64(h.NumChunks()))
	tr.add("system.msgs", float64(h.ScheduledMessages()))
	var qd float64
	for i := 1; i <= h.NumPhases(); i++ {
		qd += h.AvgQueueDelay(i)
	}
	tr.add("system.queue_delay_cycles", qd)
	addEngineStats(tr, inst, runMs)
	addNocStats(tr, inst, h.DoneAt)
	if withReplay {
		rms, err := replay(cp.topo, cp.net, cp.sys.Backend, *msgs)
		if err != nil {
			return "", 0, err
		}
		if cp.sys.Backend == config.FastBackend {
			tr.add("fastnet.replay_ms", rms)
		} else {
			tr.add("noc.replay_ms", rms)
		}
		tr.add("system.self_ms", runMs-rms)
	}
	return out, facadeMs, nil
}

// tracePlatform times building the template's facade platform.
func tracePlatform(tr *tracer, c collCfg, backend config.Backend, intra int) error {
	t0 := cpuNow()
	_, err := newCollPlat(c, backend, intra)
	tr.add("facade.platform_ms", cpuSince(t0))
	return err
}

// predict returns the oracle's exact cycles for a single-chunk run, and
// false where the oracle refuses the configuration (multi-chunk or
// congested).
func (cp *collPlat) predict(bytes int64) (uint64, bool, error) {
	m, err := oracle.NewModel(cp.topo, cp.sys, cp.net)
	if err != nil {
		return 0, false, err
	}
	p, err := m.Predict(cp.cfg.op, bytes)
	if err != nil {
		return 0, false, nil
	}
	return uint64(p.Cycles), true, nil
}

// --- collectives-packet -------------------------------------------------

// collTemplates span Figs 9-12: 64-NPU 3D and ND tori, a2a:, sw: and hier:
// fabrics, all four ops, 64 KiB to 2 MiB, 1 to 64 splits, both policies and
// both algorithms. Their count is odd and their host costs overlap, so the
// median and tail fall inside a cluster of like-costed ops rather than in
// a gap between two.
var collTemplates = []collCfg{
	{"t3d-ar-512k-s1", "4x4x4", collectives.AllReduce, 512 << 10, 1, config.Baseline, config.LIFO, false},
	{"t3d-ar-64k-s64", "4x4x4", collectives.AllReduce, 64 << 10, 64, config.Enhanced, config.LIFO, false},
	{"t3d-a2a-64k-s1", "4x4x4", collectives.AllToAll, 64 << 10, 1, config.Baseline, config.LIFO, false},
	{"t3d-ag-256k-s8", "4x4x2", collectives.AllGather, 256 << 10, 8, config.Baseline, config.FIFO, false},
	{"tnd-rs-512k-s1", "2x2x2x2x4", collectives.ReduceScatter, 512 << 10, 1, config.Baseline, config.LIFO, false},
	{"tnd-ag-128k-s16", "2x2x2x2x4", collectives.AllGather, 128 << 10, 16, config.Enhanced, config.FIFO, false},
	{"a2a-ar-128k-s1", "a2a:8x8", collectives.AllReduce, 128 << 10, 1, config.Enhanced, config.LIFO, false},
	{"a2a-a2a-64k-s4", "a2a:8x8", collectives.AllToAll, 64 << 10, 4, config.Baseline, config.LIFO, false},
	{"sw-ag-2m-s1", "sw:8x8", collectives.AllGather, 2 << 20, 1, config.Baseline, config.LIFO, false},
	{"sw-ar-64k-s16", "sw:8x8", collectives.AllReduce, 64 << 10, 16, config.Enhanced, config.FIFO, false},
	{"hier-ar-64k-s1", "hier:sw4,fc4,ring4", collectives.AllReduce, 64 << 10, 1, config.Enhanced, config.LIFO, false},
	{"hier-ar-64k-s32", "hier:sw4,fc4,ring4", collectives.AllReduce, 64 << 10, 32, config.Baseline, config.FIFO, false},
	{"hier-rs-256k-s4", "hier:fc8,ring8", collectives.ReduceScatter, 256 << 10, 4, config.Baseline, config.LIFO, false},
}

type collRunner struct {
	cfgs  []collCfg
	plats []*collPlat
}

func setupCollectives() (runner, error) {
	r := &collRunner{cfgs: collTemplates}
	for _, c := range r.cfgs {
		p, err := newCollPlat(c, config.PacketBackend, 0)
		if err != nil {
			return nil, err
		}
		r.plats = append(r.plats, p)
	}
	// Warm-up: one small op, so lazy initialisation is not timed.
	if _, err := r.plats[10].run(16 << 10); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *collRunner) input(t, v int) string { return r.cfgs[t].input(v) }

func (r *collRunner) plat(t, v int) (*collPlat, int64) {
	return r.plats[t], r.cfgs[t].at(v)
}

func (r *collRunner) reference(t, v int) (string, error) {
	p, bytes := r.plat(t, v)
	return p.run(bytes)
}

func (r *collRunner) op(it item, tr *tracer) *opRecord {
	p, bytes := r.plat(it.Tmpl, it.Variant)
	if tr == nil {
		return timeOp(it, func() (string, error) { return p.run(bytes) })
	}
	var facadeMs float64
	rec := timeOp(it, func() (string, error) {
		out, ms, err := p.traced(tr, bytes, true)
		facadeMs = ms
		return out, err
	})
	if rec.err == nil {
		rec.ms = facadeMs
	}
	return rec
}

func (r *collRunner) tracePlatforms(tr *tracer) error {
	for _, c := range r.cfgs {
		if err := tracePlatform(tr, c, config.PacketBackend, 0); err != nil {
			return err
		}
	}
	return nil
}

// check: every single-chunk output the oracle accepts must equal its exact
// prediction, and the fast backend must reproduce its cycles and bytes by
// class.
func (r *collRunner) check(ops []*opRecord) ([]string, error) {
	var predicted, refused, fastEq int
	failKeyed(ops, func(t, v int, out string) error {
		if r.cfgs[t].splits != 1 {
			return nil
		}
		p, bytes := r.plat(t, v)
		want, ok, err := p.predict(bytes)
		if err != nil {
			return err
		}
		if !ok {
			refused++
			return nil
		}
		predicted++
		var cycles uint64
		if _, err := fmt.Sscanf(out, "cycles=%d", &cycles); err != nil {
			return err
		}
		if cycles != want {
			return fmt.Errorf("%s: simulated %d cycles, oracle predicts %d", r.cfgs[t].name, cycles, want)
		}
		fast, err := newCollPlat(r.cfgs[t], config.FastBackend, 0)
		if err != nil {
			return err
		}
		fout, err := fast.run(bytes)
		if err != nil {
			return err
		}
		if fout != out {
			return fmt.Errorf("%s: fast backend gave %s, packet %s", r.cfgs[t].name, fout, out)
		}
		fastEq++
		return nil
	})
	return []string{fmt.Sprintf("oracle exact on %d single-chunk inputs (%d refused by the oracle); fast == packet on %d", predicted, refused, fastEq)}, nil
}

func (r *collRunner) close() {}

// --- fabric-large --------------------------------------------------------

var fabricTemplates = []collCfg{
	{"t512-ar-64k", "8x8x8", collectives.AllReduce, 64 << 10, 1, config.Enhanced, config.LIFO, true},
	{"t1024-ar-32k", "8x8x16", collectives.AllReduce, 32 << 10, 1, config.Enhanced, config.LIFO, true},
	{"t2048-ar-16k", "16x8x16", collectives.AllReduce, 16 << 10, 1, config.Enhanced, config.LIFO, true},
}

// fabricRunner runs each op on the serial engine and on the partitioned
// engine; the two outputs must be identical.
type fabricRunner struct {
	cfgs     []collCfg
	serial   []*collPlat
	parallel []*collPlat
	workers  int
}

func setupFabric(workers int) (runner, error) {
	r := &fabricRunner{cfgs: fabricTemplates, workers: workers}
	for _, c := range r.cfgs {
		s, err := newCollPlat(c, config.PacketBackend, 0)
		if err != nil {
			return nil, err
		}
		p, err := newCollPlat(c, config.PacketBackend, workers)
		if err != nil {
			return nil, err
		}
		r.serial, r.parallel = append(r.serial, s), append(r.parallel, p)
	}
	if _, err := r.parallel[0].run(4 << 10); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *fabricRunner) input(t, v int) string {
	return fmt.Sprintf("%s workers=%d", r.cfgs[t].input(v), r.workers)
}

func (r *fabricRunner) reference(t, v int) (string, error) {
	return r.serial[t].run(r.cfgs[t].at(v))
}

func (r *fabricRunner) op(it item, tr *tracer) *opRecord {
	bytes := r.cfgs[it.Tmpl].at(it.Variant)
	s, p := r.serial[it.Tmpl], r.parallel[it.Tmpl]
	var facadeMs float64
	rec := timeOp(it, func() (string, error) {
		var sout, pout string
		var err error
		if tr == nil {
			if sout, err = s.run(bytes); err != nil {
				return "", err
			}
			pout, err = p.run(bytes)
		} else {
			var sms, pms float64
			if sout, sms, err = s.traced(tr, bytes, true); err != nil {
				return "", err
			}
			pout, pms, err = p.traced(tr, bytes, false)
			facadeMs = sms + pms
		}
		if err != nil {
			return "", err
		}
		if sout != pout {
			return "", fmt.Errorf("%s: partitioned run gave %s, serial %s", r.cfgs[it.Tmpl].name, pout, sout)
		}
		return sout, nil
	})
	if tr != nil && rec.err == nil {
		rec.ms = facadeMs
	}
	return rec
}

func (r *fabricRunner) tracePlatforms(tr *tracer) error {
	for _, c := range r.cfgs {
		if err := tracePlatform(tr, c, config.PacketBackend, r.workers); err != nil {
			return err
		}
	}
	return nil
}

// check: the oracle's exact prediction holds wherever it accepts the input.
func (r *fabricRunner) check(ops []*opRecord) ([]string, error) {
	var predicted, refused int
	failKeyed(ops, func(t, v int, out string) error {
		want, ok, err := r.serial[t].predict(r.cfgs[t].at(v))
		if err != nil || !ok {
			refused++
			return err
		}
		predicted++
		if got := fmt.Sprintf("cycles=%d ", want); len(out) < len(got) || out[:len(got)] != got {
			return fmt.Errorf("%s: output %s, oracle predicts %d cycles", r.cfgs[t].name, out, want)
		}
		return nil
	})
	return []string{fmt.Sprintf("partitioned == serial on every op; oracle exact on %d inputs (%d refused by the oracle)", predicted, refused)}, nil
}

func (r *fabricRunner) close() {}

// failKeyed runs check once per distinct successful input and fails every
// op of an input whose check fails.
func failKeyed(ops []*opRecord, check func(t, v int, out string) error) {
	done := map[[2]int]error{}
	for _, o := range ops {
		if o.failed() {
			continue
		}
		key := [2]int{o.it.Tmpl, o.it.Variant}
		err, seen := done[key]
		if !seen {
			err = check(o.it.Tmpl, o.it.Variant, o.out)
			done[key] = err
		}
		if err != nil {
			o.err = err
		}
	}
}
