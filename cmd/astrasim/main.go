// Command astrasim is the end-to-end simulator CLI: it runs the training
// loop of a DNN workload over a simulated scale-up fabric and reports
// layer-wise compute, communication, and exposed-communication time.
//
// The workload is either a Fig. 8-format description file (-workload
// path/to/file) or one of the built-in models (-workload resnet50,
// transformer, dlrm). System and network parameters mirror Table III of
// the paper; defaults are Table IV.
//
// Examples:
//
//	astrasim -workload resnet50 -topology 2x4x4 -num-passes 2
//	astrasim -workload transformer -topology 2x2x2 -scheduling-policy LIFO
//	astrasim -workload my_dnn.txt -topology a2a:4x4 -switches 2
//	astrasim -workload resnet50 -faults examples/faults/lossy.json
//	astrasim -graph workloads/microbench.graph.json -topology 2x2x2
//	astrasim -workload dlrm -graph-dump dlrm.graph.json
//	astrasim -model workloads/models/tinylm.model.json -plan workloads/models/zero3_tp2_pp2.plan.json -topology hier:sw4,fc4,ring4
//
// -faults applies a JSON fault plan (degraded links, outages, stragglers,
// packet drops with retransmit; see DESIGN.md §8) to the training run and
// reports the dropped-packet and retransmit counters.
//
// Every run replays an execution graph through the dependency-driven
// graph engine (DESIGN.md §10): -workload is compiled into one (the
// layer-wise training loop unrolled), -graph reads one from a JSON trace
// instead, and -graph-dump writes the compiled -workload graph and exits.
//
// -model spec.json -plan plan.json compiles a versioned model spec under
// a parallelism plan (dp/tp/pp/ep degrees, ZeRO stage, microbatches,
// interleaving factor; DESIGN.md §15) into an execution graph unrolled
// over -num-passes training steps and replays it — or writes the graph
// out when combined with -graph-dump.
// -audit attaches the invariant auditor to the run and fails loudly on
// any conservation or quiescence violation.
//
// -backend selects the network transport: packet (congestion-aware,
// default) or fast (congestion-unaware analytical mode; see DESIGN.md
// §11). -faults requires the packet backend.
//
// -intra-parallel N partitions the packet network across N shard-pool
// workers for intra-run parallel simulation (DESIGN.md §13). Results are
// byte-identical to the serial engine at any worker count; 0 (the
// default) keeps the serial engine. Incompatible with -faults.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"astrasim/internal/audit"
	"astrasim/internal/cli"
	"astrasim/internal/compute"
	"astrasim/internal/config"
	"astrasim/internal/faults"
	"astrasim/internal/graph"
	"astrasim/internal/modelgen"
	"astrasim/internal/models"
	"astrasim/internal/report"
	"astrasim/internal/system"
	"astrasim/internal/trace"
	"astrasim/internal/workload"
)

func main() {
	wl := flag.String("workload", "resnet50", "workload file path, or builtin: resnet50|transformer|dlrm")
	passes := flag.Int("num-passes", 2, "forward/backward iterations to simulate")
	batch := flag.Int("batch", 32, "local minibatch size (builtin workloads)")
	seqLen := flag.Int("seq-len", 128, "sequence length (builtin transformer)")
	topoFlag := flag.String("topology", "2x4x4", "torus MxNxK, alltoall a2a:MxN, or composition hier:sw8,fc4,ring32")
	algFlag := flag.String("algorithm", "enhanced", "baseline or enhanced collective algorithm")
	policyFlag := flag.String("scheduling-policy", "LIFO", "LIFO or FIFO")
	switches := flag.Int("global-switches", 2, "global switches (alltoall topology)")
	localRings := flag.Int("local-rings", 2, "unidirectional local rings")
	horizontalRings := flag.Int("horizontal-rings", 2, "bidirectional horizontal rings")
	verticalRings := flag.Int("vertical-rings", 2, "bidirectional vertical rings")
	splits := flag.Int("preferred-set-splits", config.DefaultSystem().PreferredSetSplits, "chunks per collective set")
	endpointDelay := flag.Uint64("endpoint-delay", 10, "NMU delay per received message (cycles)")
	computeScale := flag.Float64("compute-scale", 1, "NPU compute-power multiplier (builtin workloads)")
	localBW := flag.Float64("local-link-bw", 200, "intra-package link bandwidth (GB/s)")
	packageBW := flag.Float64("package-link-bw", 25, "inter-package link bandwidth (GB/s)")
	pktCap := flag.Int("max-packets-per-message", 8, "packet-event cap per message (0 = exact)")
	writeWorkload := flag.String("write-workload", "", "write the selected workload as a Fig. 8 file and exit")
	faultsFlag := flag.String("faults", "", "JSON fault plan for the run (see DESIGN.md §8)")
	traceOut := flag.String("trace", "", "write a Chrome trace (chrome://tracing / Perfetto) of the run to this file")
	graphFlag := flag.String("graph", "", "replay this execution graph (JSON, DESIGN.md §10) instead of the training loop")
	modelFlag := flag.String("model", "", "model spec (JSON, DESIGN.md §15) to compile with -plan instead of -workload")
	planFlag := flag.String("plan", "", "parallelism plan (JSON, DESIGN.md §15) for -model")
	graphDump := flag.String("graph-dump", "", "compile the selected -workload into an execution graph, write it here, and exit")
	auditFlag := flag.Bool("audit", false, "attach the invariant auditor and fail on any violation")
	backendFlag := flag.String("backend", "packet", "network backend: packet (congestion-aware) or fast (congestion-unaware analytical)")
	intraParallel := flag.Int("intra-parallel", 0, "shard-pool workers for intra-run parallel packet simulation (0 = serial engine; results are identical at any count)")
	remoteMem := flag.String("remote-mem", "", "disaggregated memory tier, \"bw=<bytes/cycle>[,lat=<cycles>]\" (empty = disabled)")
	flag.Parse()

	backend, err := config.ParseBackend(*backendFlag)
	if err != nil {
		fatal(err)
	}
	if *faultsFlag != "" && backend != config.PacketBackend {
		fatal(fmt.Errorf("-faults requires the packet backend; the %v backend does not model faults", backend))
	}
	if *faultsFlag != "" && *intraParallel > 0 {
		fatal(fmt.Errorf("-faults and -intra-parallel are mutually exclusive; fault injection needs the serial engine"))
	}

	if (*modelFlag == "") != (*planFlag == "") {
		fatal(fmt.Errorf("-model and -plan must be given together"))
	}
	if *modelFlag != "" && *graphFlag != "" {
		fatal(fmt.Errorf("-model and -graph are mutually exclusive"))
	}
	var modelGraph *graph.Graph
	if *modelFlag != "" {
		spec, err := modelgen.LoadSpec(*modelFlag)
		if err != nil {
			fatal(err)
		}
		mplan, err := modelgen.LoadPlan(*planFlag)
		if err != nil {
			fatal(err)
		}
		cm := compute.Default()
		cm.Scale = *computeScale
		if modelGraph, err = modelgen.Compile(spec, mplan, modelgen.Options{Steps: *passes, Compute: &cm}); err != nil {
			fatal(err)
		}
	}

	var def workload.Definition
	if *modelFlag == "" && (*graphFlag == "" || *graphDump != "") {
		if def, err = loadWorkload(*wl, *batch, *seqLen, *computeScale); err != nil {
			fatal(err)
		}
	}
	if *graphDump != "" {
		g := modelGraph
		if g == nil {
			if g, err = graph.FromDefinition(def, *passes); err != nil {
				fatal(err)
			}
		}
		fh, err := os.Create(*graphDump)
		if err != nil {
			fatal(err)
		}
		if err := graph.Write(fh, g); err != nil {
			fatal(err)
		}
		if err := fh.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (%d nodes, %d passes)\n", *graphDump, len(g.Nodes), g.Passes)
		return
	}
	if *writeWorkload != "" {
		fh, err := os.Create(*writeWorkload)
		if err != nil {
			fatal(err)
		}
		if err := workload.Write(fh, def); err != nil {
			fatal(err)
		}
		if err := fh.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (%d layers, %s)\n", *writeWorkload, len(def.Layers), def.Parallelism)
		return
	}

	cfg := config.DefaultSystem()
	cfg.Backend = backend
	cfg.IntraParallel = *intraParallel
	if cfg.Algorithm, err = config.ParseAlgorithm(*algFlag); err != nil {
		fatal(err)
	}
	if cfg.SchedulingPolicy, err = config.ParseSchedulingPolicy(*policyFlag); err != nil {
		fatal(err)
	}
	cfg.PreferredSetSplits = *splits
	cfg.EndpointDelay = *endpointDelay
	cfg.LocalRings, cfg.HorizontalRings, cfg.VerticalRings = *localRings, *horizontalRings, *verticalRings
	cfg.GlobalSwitches = *switches
	if *remoteMem != "" {
		if cfg.RemoteMemBandwidth, cfg.RemoteMemLatency, err = cli.ParseRemoteMem(*remoteMem); err != nil {
			fatal(err)
		}
	}

	topo, err := cli.BuildTopology(*topoFlag, cli.TopologyOptions{
		LocalRings:      *localRings,
		HorizontalRings: *horizontalRings,
		VerticalRings:   *verticalRings,
		GlobalSwitches:  *switches,
	}, &cfg)
	if err != nil {
		fatal(err)
	}

	net := config.DefaultNetwork()
	net.LocalLinkBandwidth = *localBW
	net.PackageLinkBandwidth = *packageBW
	net.MaxPacketsPerMessage = *pktCap

	inst, err := system.NewInstance(topo, cfg, net)
	if err != nil {
		fatal(err)
	}
	var plan *faults.Plan
	if *faultsFlag != "" {
		if plan, err = faults.Load(*faultsFlag); err != nil {
			fatal(err)
		}
		if err := faults.Apply(plan, inst); err != nil {
			fatal(err)
		}
	}
	var rec *trace.Recorder
	if *traceOut != "" {
		rec = trace.New()
		inst.Sys.Tracer = rec
	}
	var aud *audit.Auditor
	if *auditFlag {
		aud = audit.Attach(inst.Sys, inst.Net)
	}
	// Every front end ends in one execution graph: a compiled model, a
	// loaded trace, or the layer-wise training loop unrolled.
	g := modelGraph
	var runName string
	switch {
	case g != nil:
		runName = fmt.Sprintf("model %s (%d nodes)", g.Name, len(g.Nodes))
	case *graphFlag != "":
		if g, err = graph.Load(*graphFlag); err != nil {
			fatal(err)
		}
		runName = fmt.Sprintf("graph %s (%d nodes)", g.Name, len(g.Nodes))
	default:
		if g, err = graph.FromDefinition(def, *passes); err != nil {
			fatal(err)
		}
		runName = fmt.Sprintf("workload %s (%s)", def.Name, def.Parallelism)
	}
	res, err := graph.Run(inst, g)
	if err != nil {
		fatal(err)
	}
	if rec != nil {
		fh, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		if err := rec.WriteJSON(fh); err != nil {
			fatal(err)
		}
		if err := fh.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (%d spans)\n", *traceOut, rec.Len())
	}

	fmt.Printf("%s, %d passes on %s, %v algorithm, %v scheduling\n",
		runName, res.Passes, topo.Name(), cfg.Algorithm, cfg.SchedulingPolicy)
	t := report.New("layers", "per-layer results",
		"layer", "compute", "fwd-comm", "ig-comm", "wg-comm", "exposed")
	for _, l := range res.Layers {
		t.AddRow(l.Name,
			report.Int(int64(l.ComputeCycles)),
			report.Int(int64(l.FwdCommCycles)),
			report.Int(int64(l.IGCommCycles)),
			report.Int(int64(l.WGCommCycles)),
			report.Int(int64(l.ExposedCycles)))
	}
	if err := t.WriteASCII(os.Stdout); err != nil {
		fatal(err)
	}
	fmt.Printf("\ntotal: %d cycles (%.3f ms at 1 GHz)\n", res.TotalCycles, float64(res.TotalCycles)/1e6)
	fmt.Printf("compute: %d cycles (%s of total)\n", res.TotalCompute(),
		report.Percent(float64(res.TotalCompute())/float64(res.TotalCycles)))
	fmt.Printf("exposed communication: %d cycles (%s of total)\n", res.TotalExposed(),
		report.Percent(res.ExposedRatio()))
	fmt.Printf("raw communication (overlappable): %d cycles\n", res.TotalComm())
	if plan != nil {
		ds := inst.Net.DropStats()
		fmt.Printf("faults: %d packets dropped (%d bytes), %d retransmits (%d goodput bytes resent)\n",
			ds.DroppedPackets, ds.DroppedBytes, inst.Sys.Retransmits(), inst.Sys.RetransmittedBytes())
	}
	if aud != nil {
		if err := aud.Report().Err(); err != nil {
			fatal(err)
		}
		fmt.Println("audit: all invariants held")
	}
}

func loadWorkload(name string, batch, seqLen int, scale float64) (workload.Definition, error) {
	m := compute.Default()
	switch strings.ToLower(name) {
	case "resnet50", "resnet-50":
		return models.ResNet50(m, batch).ScaleCompute(scale), nil
	case "transformer":
		return models.Transformer(m, batch, seqLen).ScaleCompute(scale), nil
	case "dlrm":
		return models.DLRM(m, batch).ScaleCompute(scale), nil
	}
	fh, err := os.Open(name)
	if err != nil {
		return workload.Definition{}, fmt.Errorf("workload %q is not builtin and not readable: %w", name, err)
	}
	defer fh.Close()
	def, err := workload.Parse(name, fh)
	if err != nil {
		return workload.Definition{}, err
	}
	return def.ScaleCompute(scale), nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "astrasim:", err)
	os.Exit(1)
}
