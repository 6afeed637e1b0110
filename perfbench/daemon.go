package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"

	"astrasim"
	"astrasim/internal/collectives"
	"astrasim/internal/config"
	"astrasim/internal/modelgen"
	"astrasim/internal/service"
)

// daemonCfg is one daemon-mix template: a small fast-backend collective
// job or a model job, chunked into daemonSplits chunks per set. Variants
// make each new submission distinct: a collective grows by 256 bytes per
// variant, a model spec is renamed.
type daemonCfg struct {
	name     string
	topology string
	op       collectives.Op
	base     int64
	model    func(batch int) *modelgen.Spec
	plan     modelgen.Plan
}

// By miss cost, four of daemonTemplates lie below t3d-ar-512k and four
// above it, so the median of the misses falls inside that one template's
// tight cluster instead of in a gap between two.
var daemonTemplates = []daemonCfg{
	{name: "ar-2x2x2-1m", topology: "2x2x2", op: collectives.AllReduce, base: 1 << 20},
	{name: "ar-4x4x2-2m", topology: "4x4x2", op: collectives.AllReduce, base: 2 << 20},
	{name: "a2a-a2a-256k", topology: "a2a:4x4", op: collectives.AllToAll, base: 256 << 10},
	{name: "sw-ag-1m", topology: "sw:4x4", op: collectives.AllGather, base: 1 << 20},
	{name: "hier-rs-2m", topology: "hier:sw4,fc2,ring4", op: collectives.ReduceScatter, base: 2 << 20},
	{name: "t3d-ar-512k", topology: "4x4x4", op: collectives.AllReduce, base: 512 << 10},
	{name: "tnd-ag-512k", topology: "2x2x2x2", op: collectives.AllGather, base: 512 << 10},
	{name: "moe-dp2-ep4", topology: "hier:sw2,fc2,ring2", model: moeLM,
		plan: modelgen.Plan{Version: 1, Name: "dp2-ep4", DP: 2, EP: 4, Microbatches: 2, CapacityFactor: 1.25}},
	{name: "tiny-dp8-z1", topology: "2x2x2", model: tinyLM,
		plan: modelgen.Plan{Version: 1, Name: "dp8-z1", DP: 8, ZeROStage: 1}},
}

// daemonVariants bounds the rounds of a run: every round submits one new
// variant of each template.
const daemonVariants = 1024

// daemonSplits keeps the jobs small: 4 chunks per collective set.
const daemonSplits = 4

func (c daemonCfg) submission(v int) (service.Submission, error) {
	sub := service.Submission{Topology: c.topology, Backend: "fast", SetSplits: daemonSplits}
	if c.model == nil {
		sub.Collective = &service.CollectiveSpec{Op: c.op.String(), Bytes: c.bytes(v)}
		return sub, nil
	}
	spec, plan := c.pair(v)
	var err error
	if sub.Model, err = json.Marshal(spec); err != nil {
		return sub, err
	}
	sub.Plan, err = json.Marshal(plan)
	return sub, err
}

func (c daemonCfg) bytes(v int) int64 { return c.base + 256*int64(v) }

func (c daemonCfg) pair(v int) (*modelgen.Spec, *modelgen.Plan) {
	spec := c.model(16)
	spec.Name = fmt.Sprintf("%s-v%d", spec.Name, v)
	plan := c.plan
	return spec, &plan
}

// The daemon's result payloads, mirrored field for field so a direct
// facade run can be rendered the way the daemon renders it.
type collectiveResult struct {
	Kind               string `json:"kind"`
	Topology           string `json:"topology"`
	Op                 string `json:"op"`
	Bytes              int64  `json:"bytes"`
	DurationCycles     uint64 `json:"duration_cycles"`
	IntraPackageBytes  int64  `json:"intra_package_bytes"`
	InterPackageBytes  int64  `json:"inter_package_bytes"`
	ScaleOutBytes      int64  `json:"scale_out_bytes"`
	DroppedPackets     uint64 `json:"dropped_packets"`
	RetransmittedBytes int64  `json:"retransmitted_bytes"`
}

type trainResult struct {
	Kind              string  `json:"kind"`
	Topology          string  `json:"topology"`
	TotalCycles       uint64  `json:"total_cycles"`
	Passes            int     `json:"passes"`
	ComputeCycles     uint64  `json:"compute_cycles"`
	TotalCommCycles   uint64  `json:"total_comm_cycles"`
	ExposedCommCycles uint64  `json:"exposed_comm_cycles"`
	ExposedRatio      float64 `json:"exposed_ratio"`
}

type envelope struct {
	State  string          `json:"state"`
	Result json.RawMessage `json:"result"`
	Error  string          `json:"error"`
}

type stats struct {
	Runs        uint64 `json:"runs"`
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	Collapsed   uint64 `json:"collapsed"`
}

type daemonRunner struct {
	cfgs   []daemonCfg
	plats  []*collPlat
	srv    *service.Server
	ts     *httptest.Server
	client *http.Client
	base   stats // counters when setup ended
}

// setupDaemon starts the daemon in process, quotas off, with one
// simulation worker (the benchmark has one client) and a cache that holds
// every input a run can submit, so no hit turns into a miss by eviction.
func setupDaemon() (runner, error) {
	r := &daemonRunner{cfgs: daemonTemplates}
	for _, c := range r.cfgs {
		p, err := daemonPlat(c)
		if err != nil {
			return nil, err
		}
		r.plats = append(r.plats, p)
	}
	r.srv = service.New(service.Config{Workers: 1, CacheEntries: len(r.cfgs) * (daemonVariants + 1)})
	r.ts = httptest.NewServer(r.srv.Handler())
	r.client = &http.Client{Timeout: opTimeout}
	// Warm-up: a submission outside the generated inputs, then its hit.
	for i := 0; i < 2; i++ {
		if _, _, err := r.post(0, daemonVariants); err != nil {
			r.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	var err error
	if r.base, err = r.stats(); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func daemonPlat(c daemonCfg) (*collPlat, error) {
	return newCollPlat(collCfg{name: c.name, spec: c.topology, op: c.op,
		splits: daemonSplits, alg: config.Baseline}, config.FastBackend, 0)
}

func (r *daemonRunner) body(t, v int) ([]byte, error) {
	sub, err := r.cfgs[t].submission(v)
	if err != nil {
		return nil, err
	}
	return json.Marshal(sub)
}

func (r *daemonRunner) input(t, v int) string {
	b, err := r.body(t, v)
	if err != nil {
		return "error: " + err.Error()
	}
	return string(b)
}

// post submits one body and returns the result payload and whether the
// daemon answered from its cache.
func (r *daemonRunner) post(t, v int) (string, bool, error) {
	b, err := r.body(t, v)
	if err != nil {
		return "", false, err
	}
	resp, err := r.client.Post(r.ts.URL+"/v1/jobs", "application/json", bytes.NewReader(b))
	if err != nil {
		return "", false, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", false, err
	}
	var env envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		return "", false, fmt.Errorf("status %d: %s", resp.StatusCode, raw)
	}
	if resp.StatusCode != http.StatusOK || env.State != "done" {
		return "", false, fmt.Errorf("refused: status %d, state %q: %s", resp.StatusCode, env.State, env.Error)
	}
	return string(env.Result), resp.Header.Get("X-Astrasim-Cache") == "hit", nil
}

func (r *daemonRunner) stats() (stats, error) {
	var s stats
	resp, err := r.client.Get(r.ts.URL + "/v1/stats")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	return s, json.NewDecoder(resp.Body).Decode(&s)
}

func (r *daemonRunner) op(it item, tr *tracer) *opRecord {
	rec := timeOp(it, func() (string, error) {
		out, hit, err := r.post(it.Tmpl, it.Variant)
		if err == nil && hit != it.Repeat {
			err = fmt.Errorf("%s variant %d: resubmission %v but cache hit %v", r.cfgs[it.Tmpl].name, it.Variant, it.Repeat, hit)
		}
		return out, err
	})
	if tr == nil || rec.failed() {
		return rec
	}
	if it.Repeat {
		tr.add("service.hit_overhead_us", rec.ms*1e3)
		return rec
	}
	out, facadeMs, err := r.traced(tr, it.Tmpl, it.Variant)
	switch {
	case err != nil:
		rec.err = err
	case out != rec.out:
		rec.err = fmt.Errorf("%s variant %d: daemon gave %s, direct facade run %s", r.cfgs[it.Tmpl].name, it.Variant, rec.out, out)
	default:
		tr.add("service.miss_overhead_ms", rec.ms-facadeMs)
	}
	return rec
}

// traced runs a miss's submission directly through the facade and the
// layers below it and renders it as the daemon would.
func (r *daemonRunner) traced(tr *tracer, t, v int) (string, float64, error) {
	c, p := r.cfgs[t], r.plats[t]
	if c.model == nil {
		_, ms, err := p.traced(tr, c.bytes(v), true)
		if err != nil {
			return "", 0, err
		}
		out, err := r.reference(t, v)
		return out, ms, err
	}
	spec, plan := c.pair(v)
	t0 := cpuNow()
	g, err := astrasim.CompileModel(spec, plan, 1)
	if err != nil {
		return "", 0, err
	}
	tr.add("modelgen.compile_ms", cpuSince(t0))
	tr.add("modelgen.comm_bytes", float64(commBytes(g)))
	res, err := p.plat.RunGraph(g)
	if err != nil {
		return "", 0, err
	}
	ms := cpuSince(t0)
	if err := graphRun(tr, p, g, trainOut(res)); err != nil {
		return "", 0, err
	}
	out, err := renderTrain(p.plat, res)
	return out, ms, err
}

// reference runs the submission directly on the facade and renders the
// result as the daemon's payload.
func (r *daemonRunner) reference(t, v int) (string, error) {
	c, p := r.cfgs[t], r.plats[t]
	if c.model == nil {
		run, err := p.plat.RunCollectiveDetailed(c.op, c.bytes(v))
		if err != nil {
			return "", err
		}
		b, err := json.Marshal(collectiveResult{
			Kind: "collective", Topology: p.plat.Name(), Op: c.op.String(), Bytes: c.bytes(v),
			DurationCycles:    uint64(run.Duration()),
			IntraPackageBytes: run.IntraPackageBytes, InterPackageBytes: run.InterPackageBytes,
			ScaleOutBytes: run.ScaleOutBytes, DroppedPackets: run.DroppedPackets,
			RetransmittedBytes: run.RetransmittedBytes,
		})
		return string(b), err
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
	return renderTrain(p.plat, res)
}

func renderTrain(p *astrasim.Platform, res astrasim.TrainingResult) (string, error) {
	b, err := json.Marshal(trainResult{
		Kind: "model", Topology: p.Name(), TotalCycles: uint64(res.TotalCycles), Passes: res.Passes,
		ComputeCycles: res.TotalCompute(), TotalCommCycles: res.TotalComm(),
		ExposedCommCycles: res.TotalExposed(), ExposedRatio: res.ExposedRatio(),
	})
	return string(b), err
}

func (r *daemonRunner) tracePlatforms(tr *tracer) error {
	for _, c := range r.cfgs {
		t0 := cpuNow()
		_, err := daemonPlat(c)
		tr.add("facade.platform_ms", cpuSince(t0))
		if err != nil {
			return err
		}
	}
	return nil
}

// check: each template's first answer must be byte-identical to a direct
// facade run (hits already match their miss byte for byte), and the
// daemon must have run each distinct submission exactly once.
func (r *daemonRunner) check(ops []*opRecord) ([]string, error) {
	live := map[int]bool{}
	failKeyed(ops, func(t, v int, out string) error {
		if live[t] {
			return nil
		}
		live[t] = true
		want, err := r.reference(t, v)
		if err != nil {
			return err
		}
		if want != out {
			return fmt.Errorf("%s variant %d: daemon gave %s, direct facade run %s", r.cfgs[t].name, v, out, want)
		}
		return nil
	})
	distinct := map[[2]int]bool{}
	for _, o := range ops {
		distinct[[2]int{o.it.Tmpl, o.it.Variant}] = true
	}
	s, err := r.stats()
	if err != nil {
		return nil, err
	}
	runs := s.Runs - r.base.Runs
	if runs != uint64(len(distinct)) {
		return nil, fmt.Errorf("daemon ran %d simulations for %d distinct submissions", runs, len(distinct))
	}
	return []string{fmt.Sprintf("hits byte-identical to their miss; %d templates byte-identical to a direct facade run; daemon runs == %d distinct submissions", len(live), len(distinct))}, nil
}

// serviceStats records the daemon's cache counters since setup.
func (r *daemonRunner) serviceStats(tr *tracer) error {
	s, err := r.stats()
	if err != nil {
		return err
	}
	hits := s.CacheHits - r.base.CacheHits
	all := hits + s.CacheMisses - r.base.CacheMisses + s.Collapsed - r.base.Collapsed
	if all > 0 {
		tr.add("service.hit_ratio", float64(hits)/float64(all))
	}
	tr.add("service.collapsed", float64(s.Collapsed-r.base.Collapsed))
	tr.add("service.runs", float64(s.Runs-r.base.Runs))
	return nil
}

func (r *daemonRunner) close() {
	if r.ts != nil {
		r.ts.Close()
	}
	if r.srv != nil {
		r.srv.Close()
	}
	if r.client != nil {
		r.client.CloseIdleConnections()
	}
}
