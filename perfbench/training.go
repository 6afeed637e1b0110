package main

import (
	"encoding/json"
	"fmt"
	"strings"

	"astrasim"
	"astrasim/internal/collectives"
	"astrasim/internal/config"
	"astrasim/internal/graph"
	"astrasim/internal/modelgen"
	"astrasim/internal/system"
)

// trainCfg is one training-fast template: either a modelgen spec x plan
// pair compiled with CompileModel and replayed with RunGraph, or a
// layer-wise workload run with Train. Variants change the batch and, for
// model pairs, the optimizer update cost or the expert placement.
type trainCfg struct {
	name   string
	fabric string
	// model pairs
	model func(batch int) *modelgen.Spec
	plan  modelgen.Plan
	// layer-wise workloads
	def func(v int) astrasim.Definition
}

func tinyLM(batch int) *modelgen.Spec {
	return &modelgen.Spec{Version: 1, Name: "tinylm", Batch: batch, DTypeBytes: 2,
		Transformer: &modelgen.TransformerSpec{Layers: 8, Hidden: 256, Heads: 8, Seq: 128, Vocab: 4096}}
}

func moeLM(batch int) *modelgen.Spec {
	return &modelgen.Spec{Version: 1, Name: "moe-lm", Batch: batch, DTypeBytes: 2,
		Transformer: &modelgen.TransformerSpec{Layers: 4, Hidden: 128, Heads: 4, Seq: 64, Vocab: 2048,
			MoE: &modelgen.MoESpec{Experts: 8, Every: 2}}}
}

var trainTemplates = []trainCfg{
	{name: "tiny-z3-tp2-pp2", fabric: "2x2x2", model: tinyLM, plan: modelgen.Plan{Version: 1, Name: "z3-tp2-pp2",
		DP: 2, TP: 2, PP: 2, ZeROStage: 3, Microbatches: 4, TPScope: "local", DPScope: "horizontal"}},
	{name: "tiny-dp8-z1", fabric: "2x2x2", model: tinyLM, plan: modelgen.Plan{Version: 1, Name: "dp8-z1", DP: 8, ZeROStage: 1}},
	{name: "tiny-dp2-pp4-v2", fabric: "hier:sw2,fc2,ring2", model: tinyLM, plan: modelgen.Plan{Version: 1, Name: "dp2-pp4-v2",
		DP: 2, PP: 4, Microbatches: 4, Interleave: 2}},
	{name: "moe-dp2-ep4", fabric: "hier:sw2,fc2,ring2", model: moeLM, plan: modelgen.Plan{Version: 1, Name: "dp2-ep4",
		DP: 2, EP: 4, Microbatches: 2, CapacityFactor: 1.25}},
	{name: "moe-dp4-ep2-z2", fabric: "2x2x2", model: moeLM, plan: modelgen.Plan{Version: 1, Name: "dp4-ep2-z2",
		DP: 4, EP: 2, ZeROStage: 2, Microbatches: 2}},
	{name: "resnet50", fabric: "2x2x2", def: func(v int) astrasim.Definition { return astrasim.ResNet50(24 + v) }},
	{name: "dlrm", fabric: "2x2x2", def: func(v int) astrasim.Definition { return astrasim.DLRM(48 + v) }},
	{name: "transformer", fabric: "2x2x2", def: func(v int) astrasim.Definition { return astrasim.Transformer(4+v%4, 64+16*(v/4)) }},
	{name: "tiny-dp4-tp2", fabric: "2x2x2", model: tinyLM, plan: modelgen.Plan{Version: 1, Name: "dp4-tp2",
		DP: 4, TP: 2, Microbatches: 2, TPScope: "local"}},
}

const trainVariants = 32

// pair returns the model spec and plan of variant v: batch 16..40, then
// the optimizer update cost (dense) or a rotated expert placement (MoE).
func (c trainCfg) pair(v int) (*modelgen.Spec, *modelgen.Plan) {
	spec := c.model(16 + 8*(v%4))
	plan := c.plan
	if spec.Transformer.MoE != nil {
		n := spec.Transformer.MoE.Experts
		plan.ExpertPermutation = make([]int, n)
		for i := range plan.ExpertPermutation {
			plan.ExpertPermutation[i] = (i + v/4) % n
		}
	} else {
		plan.UpdatePerKB = uint64(v / 4)
	}
	return spec, &plan
}

type trainRunner struct {
	cfgs  []trainCfg
	plats []*collPlat
}

func trainPlat(c trainCfg) (*collPlat, error) {
	return newCollPlat(collCfg{name: c.name, spec: c.fabric, splits: config.DefaultSystem().PreferredSetSplits, alg: config.Baseline},
		config.FastBackend, 0)
}

func setupTraining() (runner, error) {
	r := &trainRunner{cfgs: trainTemplates}
	for _, c := range r.cfgs {
		p, err := trainPlat(c)
		if err != nil {
			return nil, err
		}
		r.plats = append(r.plats, p)
	}
	if _, err := r.plats[6].plat.Train(astrasim.DLRM(8), 1); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *trainRunner) input(t, v int) string {
	c := r.cfgs[t]
	if c.model == nil {
		def := c.def(v)
		var b strings.Builder
		if err := astrasim.WriteWorkload(&b, def); err != nil {
			return "error: " + err.Error()
		}
		return c.fabric + "\n" + b.String()
	}
	spec, plan := c.pair(v)
	s, err := json.Marshal(spec)
	if err != nil {
		return "error: " + err.Error()
	}
	p, err := json.Marshal(plan)
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprintf("%s\n%s\n%s", c.fabric, s, p)
}

// trainOut is the canonical training output: cycles, compute, raw and
// exposed communication, and each layer's exposed communication.
func trainOut(res astrasim.TrainingResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycles=%d compute=%d comm=%d exposed=%d layers=", res.TotalCycles, res.TotalCompute(), res.TotalComm(), res.TotalExposed())
	for _, l := range res.Layers {
		fmt.Fprintf(&b, "%s:%d,", l.Name, l.ExposedCycles)
	}
	return b.String()
}

// run is the untraced op.
func (r *trainRunner) run(t, v int) (string, error) {
	c, p := r.cfgs[t], r.plats[t]
	if c.model == nil {
		res, err := p.plat.Train(c.def(v), 1)
		if err != nil {
			return "", err
		}
		return trainOut(res), nil
	}
	spec, plan := c.pair(v)
	g, err := astrasim.CompileModel(spec, plan, 1)
	if err != nil {
		return "", err
	}
	res, err := p.plat.RunGraph(g)
	if err != nil {
		return "", err
	}
	return trainOut(res), nil
}

func (r *trainRunner) reference(t, v int) (string, error) { return r.run(t, v) }

func (r *trainRunner) op(it item, tr *tracer) *opRecord {
	if tr == nil {
		return timeOp(it, func() (string, error) { return r.run(it.Tmpl, it.Variant) })
	}
	var opMs float64
	rec := timeOp(it, func() (string, error) {
		out, ms, err := r.traced(tr, it.Tmpl, it.Variant)
		opMs = ms
		return out, err
	})
	if rec.err == nil {
		rec.ms = opMs
	}
	return rec
}

// traced runs the op through the facade, timing the compile and train
// calls, then replays the execution graph through direct calls into the
// graph engine and network layers.
func (r *trainRunner) traced(tr *tracer, t, v int) (string, float64, error) {
	c, p := r.cfgs[t], r.plats[t]
	var g *graph.Graph
	var out string
	t0 := cpuNow()
	if c.model == nil {
		res, err := p.plat.Train(c.def(v), 1)
		if err != nil {
			return "", 0, err
		}
		out = trainOut(res)
		tr.add("workload.train_ms", cpuSince(t0))
		t1 := cpuNow()
		if g, err = astrasim.CompileGraph(c.def(v), 1); err != nil {
			return "", 0, err
		}
		tr.add("graph.compile_ms", cpuSince(t1))
	} else {
		spec, plan := c.pair(v)
		var err error
		if g, err = astrasim.CompileModel(spec, plan, 1); err != nil {
			return "", 0, err
		}
		tr.add("modelgen.compile_ms", cpuSince(t0))
		res, err := p.plat.RunGraph(g)
		if err != nil {
			return "", 0, err
		}
		out = trainOut(res)
		tr.add("modelgen.comm_bytes", float64(commBytes(g)))
	}
	opMs := cpuSince(t0)
	if err := graphRun(tr, p, g, out); err != nil {
		return "", 0, fmt.Errorf("%s: %w", c.name, err)
	}
	return out, opMs, nil
}

// graphRun replays g on a fresh instance through direct layer calls,
// timing the instance build, the graph engine and a replay of the
// network traffic, and checks it reproduces out.
func graphRun(tr *tracer, p *collPlat, g *graph.Graph, out string) error {
	t0 := cpuNow()
	inst, err := system.NewInstance(p.topo, p.sys, p.net)
	if err != nil {
		return err
	}
	tr.add("system.instance_ms", cpuSince(t0))
	msgs := capture(inst.Net)
	t0 = cpuNow()
	res, err := graph.Run(inst, g)
	runMs := cpuSince(t0)
	if err != nil {
		return err
	}
	if got := trainOut(res); got != out {
		return fmt.Errorf("direct graph replay gave %s, facade %s", got, out)
	}
	tr.add("graph.run_ms", runMs)
	tr.add("graph.nodes", float64(len(g.Nodes)))
	addEngineStats(tr, inst, runMs)
	rms, err := replay(p.topo, p.net, p.sys.Backend, *msgs)
	if err != nil {
		return err
	}
	tr.add("fastnet.replay_ms", rms)
	tr.add("system.self_ms", runMs-rms)
	return nil
}

func commBytes(g *graph.Graph) int64 {
	var n int64
	for _, nd := range g.Nodes {
		if nd.Kind == graph.KindComm || nd.Kind == graph.KindSend {
			n += nd.Bytes
		}
	}
	return n
}

func (r *trainRunner) tracePlatforms(tr *tracer) error {
	for _, c := range r.cfgs {
		t0 := cpuNow()
		_, err := trainPlat(c)
		tr.add("facade.platform_ms", cpuSince(t0))
		if err != nil {
			return err
		}
	}
	return nil
}

// check: the communication a model pair generates must equal the
// closed-form volumes of modelgen.PlanVolumes exactly.
func (r *trainRunner) check(ops []*opRecord) ([]string, error) {
	pairs := 0
	failKeyed(ops, func(t, v int, _ string) error {
		c := r.cfgs[t]
		if c.model == nil {
			return nil
		}
		spec, plan := c.pair(v)
		want, err := modelgen.PlanVolumes(spec, plan)
		if err != nil {
			return err
		}
		g, err := astrasim.CompileModel(spec, plan, 1)
		if err != nil {
			return err
		}
		got, err := graphVolumes(g)
		if err != nil {
			return err
		}
		want.PerRankShardBytes = 0
		if got != want {
			return fmt.Errorf("%s variant %d: generated volumes %+v, PlanVolumes %+v", c.name, v, got, want)
		}
		pairs++
		return nil
	})
	return []string{fmt.Sprintf("generated COMM volume == PlanVolumes on %d model inputs", pairs)}, nil
}

// graphVolumes folds a one-step graph's COMM and SEND nodes into the
// Volumes shape by tag.
func graphVolumes(g *graph.Graph) (modelgen.Volumes, error) {
	var v modelgen.Volumes
	add := func(c *modelgen.CollVolume, bytes int64) {
		c.Count++
		c.Bytes += bytes
	}
	for _, n := range g.Nodes {
		switch n.Kind {
		case graph.KindSend:
			add(&v.P2P, n.Bytes)
		case graph.KindComm:
			op, err := collectives.ParseOp(n.Op)
			if err != nil {
				return v, fmt.Errorf("node %s: %w", n.ID, err)
			}
			switch {
			case n.Tag == "zero" && op == collectives.AllGather:
				add(&v.ZeroAllGather, n.Bytes)
			case n.Tag == "zero":
				add(&v.ZeroReduce, n.Bytes)
			case n.Tag == "tp":
				add(&v.TPAllReduce, n.Bytes)
			case n.Tag == "ep":
				add(&v.EPAllToAll, n.Bytes)
			default:
				return v, fmt.Errorf("node %s: COMM with unknown tag %q", n.ID, n.Tag)
			}
		}
	}
	return v, nil
}

func (r *trainRunner) close() {}
