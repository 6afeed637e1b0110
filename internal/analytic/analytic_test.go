package analytic

import (
	"testing"

	"astrasim/internal/collectives"
	"astrasim/internal/config"
	"astrasim/internal/system"
	"astrasim/internal/topology"
)

func TestPhaseBoundsBasics(t *testing.T) {
	net := config.DefaultNetwork()
	p := collectives.Phase{Dim: topology.DimHorizontal, Op: collectives.AllReduce, Size: 8, Scale: 1}
	b := PhaseBounds(p, 4, net, config.DefaultSystem(), 8<<20)
	// Bandwidth term: 2*(7/8)*8MB over 4 channels at 23.5 B/cycle.
	wantBW := 2.0 * 7 / 8 * float64(8<<20) / (4 * 25 * 0.94)
	if b.Lower < wantBW*0.99 || b.Lower > wantBW*1.01 {
		t.Errorf("lower = %.0f, want ~%.0f (bandwidth term)", b.Lower, wantBW)
	}
	if b.Estimate <= b.Lower {
		t.Errorf("estimate %.0f must exceed lower %.0f", b.Estimate, b.Lower)
	}
}

func TestPhaseBoundsLatencyDominates(t *testing.T) {
	net := config.DefaultNetwork()
	p := collectives.Phase{Dim: topology.DimHorizontal, Op: collectives.AllReduce, Size: 8, Scale: 1}
	b := PhaseBounds(p, 4, net, config.DefaultSystem(), 1024) // tiny message
	// 14 steps x (200 link + 1 router + 10 endpoint).
	want := 14.0 * 211
	if b.Lower != want {
		t.Errorf("latency-bound lower = %.0f, want %.0f", b.Lower, want)
	}
}

func TestSizeOnePhaseFree(t *testing.T) {
	b := PhaseBounds(collectives.Phase{Size: 1}, 2, config.DefaultNetwork(), config.DefaultSystem(), 1<<20)
	if b.Lower != 0 || b.Estimate != 0 {
		t.Errorf("size-1 phase bounds = %+v, want zero", b)
	}
}

// The event-driven simulator must never beat the analytic lower bound and
// should stay within a constant factor of the estimate for uncongested
// single collectives — cross-validation of the two models.
func TestSimulatorWithinAnalyticBounds(t *testing.T) {
	type tc struct {
		name string
		topo topology.Topology
		cfg  config.System
	}
	var cases []tc

	t3, err := topology.NewTorus(4, 4, 4, topology.DefaultTorusConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg3 := config.DefaultSystem()
	cases = append(cases, tc{"4x4x4", t3, cfg3})

	t1, err := topology.NewTorus(1, 8, 1, topology.DefaultTorusConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg1 := config.DefaultSystem()
	cases = append(cases, tc{"1x8x1", t1, cfg1})

	a2a, err := topology.NewA2A(2, 4, topology.DefaultA2AConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfgA := config.DefaultSystem()
	cases = append(cases, tc{"2x4 a2a", a2a, cfgA})

	nd, err := topology.NewTorusND([]int{2, 2, 2, 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfgN := config.DefaultSystem()
	cases = append(cases, tc{"2x2x2x2", nd, cfgN})

	net := config.DefaultNetwork()
	for _, c := range cases {
		for _, op := range []collectives.Op{collectives.AllReduce, collectives.AllToAll, collectives.ReduceScatter} {
			for _, alg := range []config.Algorithm{config.Baseline, config.Enhanced} {
				for _, size := range []int64{256 << 10, 8 << 20} {
					cfg := c.cfg
					cfg.Algorithm = alg
					h, err := system.RunCollective(c.topo, cfg, net, op, size)
					if err != nil {
						t.Fatalf("%s/%v/%v/%d: %v", c.name, op, alg, size, err)
					}
					b, err := CollectiveBounds(op, c.topo, alg, net, cfg, size)
					if err != nil {
						t.Fatalf("%s/%v/%v: bounds: %v", c.name, op, alg, err)
					}
					sim := float64(h.Duration())
					if sim < b.Lower {
						t.Errorf("%s/%v/%v/%d: simulated %.0f beats analytic lower bound %.0f",
							c.name, op, alg, size, sim, b.Lower)
					}
					if sim > 4*b.Estimate+20000 {
						t.Errorf("%s/%v/%v/%d: simulated %.0f far above analytic estimate %.0f",
							c.name, op, alg, size, sim, b.Estimate)
					}
				}
			}
		}
	}
}

func TestCollectiveBoundsEnhancedBelowBaseline(t *testing.T) {
	tp, err := topology.NewTorus(4, 4, 4, topology.DefaultTorusConfig())
	if err != nil {
		t.Fatal(err)
	}
	net := config.DefaultNetwork()
	base, err := CollectiveBounds(collectives.AllReduce, tp, config.Baseline, net, config.DefaultSystem(), 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	enh, err := CollectiveBounds(collectives.AllReduce, tp, config.Enhanced, net, config.DefaultSystem(), 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	if enh.Lower >= base.Lower {
		t.Errorf("enhanced lower bound %.0f should beat baseline %.0f on asymmetric fabric",
			enh.Lower, base.Lower)
	}
}
