package audit_test

import (
	"strings"
	"testing"

	"astrasim/internal/audit"
	"astrasim/internal/collectives"
	"astrasim/internal/config"
	"astrasim/internal/noc"
	"astrasim/internal/system"
	"astrasim/internal/topology"
)

func newTorusInstance(t *testing.T, m, n, k int) *system.Instance {
	t.Helper()
	tp, err := topology.NewTorus(m, n, k, topology.TorusConfig{LocalRings: 2, HorizontalRings: 2, VerticalRings: 2})
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.DefaultSystem()
	net := config.DefaultNetwork()
	inst, err := system.NewInstance(tp, cfg, net)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// A clean collective run must audit with zero violations and an exact
// injected-bytes ledger.
func TestAuditCleanRun(t *testing.T) {
	for _, op := range []collectives.Op{
		collectives.ReduceScatter, collectives.AllGather, collectives.AllReduce, collectives.AllToAll,
	} {
		t.Run(op.String(), func(t *testing.T) {
			inst := newTorusInstance(t, 2, 2, 2)
			aud := audit.Attach(inst.Sys, inst.Net)
			h, err := inst.Sys.IssueCollective(op, 1<<20, op.String(), nil)
			if err != nil {
				t.Fatal(err)
			}
			inst.Eng.Run()
			rep := aud.Report()
			if err := rep.Err(); err != nil {
				t.Fatal(err)
			}
			if rep.Collectives != 1 || rep.Messages == 0 {
				t.Fatalf("report = %+v, want 1 collective and nonzero messages", rep)
			}
			if rep.InjectedBytes != h.ScheduledTxBytes() {
				t.Fatalf("injected %d bytes, schedule says %d", rep.InjectedBytes, h.ScheduledTxBytes())
			}
		})
	}
}

// Point-to-point traffic must balance through the p2p ledger.
func TestAuditPointToPoint(t *testing.T) {
	inst := newTorusInstance(t, 2, 2, 2)
	aud := audit.Attach(inst.Sys, inst.Net)
	delivered := false
	if err := inst.Sys.SendPointToPoint(0, 5, 64<<10, func() { delivered = true }); err != nil {
		t.Fatal(err)
	}
	inst.Eng.Run()
	if !delivered {
		t.Fatal("p2p send never delivered")
	}
	rep := aud.Report()
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	if rep.P2PBytes != 64<<10 || rep.InjectedBytes != 64<<10 {
		t.Fatalf("p2p ledger = %d injected / %d p2p, want 65536 each", rep.InjectedBytes, rep.P2PBytes)
	}
}

// A report taken mid-flight (engine not drained) must flag the imbalance:
// the audit genuinely detects non-quiescent state rather than always
// passing.
func TestAuditDetectsMidFlightState(t *testing.T) {
	inst := newTorusInstance(t, 2, 2, 2)
	aud := audit.Attach(inst.Sys, inst.Net)
	if _, err := inst.Sys.IssueCollective(collectives.AllReduce, 1<<20, "ar", nil); err != nil {
		t.Fatal(err)
	}
	// Run only a prefix of the simulation.
	for i := 0; i < 50; i++ {
		inst.Eng.Step()
	}
	rep := aud.Report()
	if rep.OK() {
		t.Fatal("mid-flight audit reported clean; quiescence check is not observing real state")
	}
	found := false
	for _, v := range rep.Violations {
		if strings.Contains(v, "quiescence") || strings.Contains(v, "conservation") {
			found = true
		}
	}
	if !found {
		t.Fatalf("violations carry no quiescence/conservation finding: %v", rep.Violations)
	}
	// Finishing the run must clear every violation.
	inst.Eng.Run()
	if err := aud.Report().Err(); err != nil {
		t.Fatal(err)
	}
}

// Traffic that bypasses the system layer's ledgers (a raw network send no
// collective or p2p transfer accounts for) must trip byte conservation.
func TestAuditDetectsUnaccountedTraffic(t *testing.T) {
	inst := newTorusInstance(t, 2, 2, 2)
	aud := audit.Attach(inst.Sys, inst.Net)
	ring := inst.Topo.RingOf(topology.DimLocal, 0, 0)
	inst.Net.Send(&noc.Message{
		Src: 0, Dst: ring.Next(0), Bytes: 4096,
		Path: []topology.LinkID{ring.LinkFrom(0)},
	})
	inst.Eng.Run()
	rep := aud.Report()
	if rep.OK() {
		t.Fatal("unaccounted 4096-byte send audited clean")
	}
	if !strings.Contains(strings.Join(rep.Violations, ";"), "conservation") {
		t.Fatalf("want a conservation violation, got %v", rep.Violations)
	}
}

// The AttachAll seam must audit instances created through
// system.NewInstance and aggregate into the collector.
func TestAttachAllCollects(t *testing.T) {
	c := &audit.Collector{}
	restore := audit.AttachAll(c)
	defer restore()

	for i := 0; i < 3; i++ {
		inst := newTorusInstance(t, 2, 2, 1)
		if _, err := inst.Sys.IssueCollective(collectives.AllReduce, 256<<10, "ar", nil); err != nil {
			t.Fatal(err)
		}
		inst.Eng.Run()
	}
	if c.Runs() != 3 {
		t.Fatalf("collector recorded %d runs, want 3", c.Runs())
	}
	if v := c.Violations(); len(v) != 0 {
		t.Fatalf("collector has violations: %v", v)
	}
	if !strings.Contains(c.Summary(), "audit ok") {
		t.Fatalf("summary = %q", c.Summary())
	}

	restore()
	before := c.Runs()
	inst := newTorusInstance(t, 2, 2, 1)
	_ = inst
	if c.Runs() != before {
		t.Fatal("restore did not detach the instance hook")
	}
}

// Zero-phase (single-node) collectives must audit clean: Done only after
// the completion event, DoneAt stamped, nothing injected.
func TestAuditZeroPhaseCollective(t *testing.T) {
	inst := newTorusInstance(t, 1, 1, 1)
	aud := audit.Attach(inst.Sys, inst.Net)
	var h *system.Handle
	inst.Eng.Schedule(500, func() {
		var err error
		h, err = inst.Sys.IssueCollective(collectives.AllReduce, 1<<20, "ar", nil)
		if err != nil {
			t.Fatal(err)
		}
	})
	inst.Eng.Run()
	if err := aud.Report().Err(); err != nil {
		t.Fatal(err)
	}
	if !h.Done() || h.DoneAt != 500 || h.Duration() != 0 {
		t.Fatalf("zero-phase handle: done=%v doneAt=%d duration=%d, want true/500/0", h.Done(), h.DoneAt, h.Duration())
	}
}
