package system

// Regression tests for the bugs surfaced by the audit layer: zero-phase
// completion handles and endpoint-delay truncation.

import (
	"testing"

	"astrasim/internal/collectives"
	"astrasim/internal/config"
	"astrasim/internal/eventq"
	"astrasim/internal/topology"
)

// A zero-phase (single-node) collective must not report Done before its
// scheduled completion event fires: issuing at t>0 used to leave DoneAt at
// zero while Done() was already true, so Duration underflowed.
func TestZeroPhaseCollectiveCompletesAtIssueTime(t *testing.T) {
	tp := torus(t, 1, 1, 1, topology.TorusConfig{LocalRings: 1, HorizontalRings: 1, VerticalRings: 1})
	inst, err := NewInstance(tp, config.DefaultSystem(), config.DefaultNetwork())
	if err != nil {
		t.Fatal(err)
	}
	const issueAt = 1000
	var h *Handle
	completed := false
	inst.Eng.Schedule(issueAt, func() {
		h, err = inst.Sys.IssueCollective(collectives.AllReduce, 4<<20, "t", func(*Handle) { completed = true })
		if err != nil {
			t.Fatal(err)
		}
		if h.Done() {
			t.Error("handle reports Done at issue time, before the completion event fired")
		}
	})
	inst.Eng.Run()
	if !completed {
		t.Fatal("zero-phase collective never completed")
	}
	if !h.Done() {
		t.Fatal("handle not Done after completion")
	}
	if h.DoneAt != issueAt {
		t.Errorf("DoneAt = %d, want %d", h.DoneAt, issueAt)
	}
	if h.Duration() != 0 {
		t.Errorf("Duration = %d, want 0 (was underflowing to 2^64-%d pre-fix)", h.Duration(), issueAt)
	}
}

// A multi-phase collective's handle must also flip Done only at the
// completion callback (the done flag, not chunk arithmetic, is the truth).
func TestDoneMatchesOnComplete(t *testing.T) {
	tp := torus(t, 1, 4, 1, topology.DefaultTorusConfig())
	inst, err := NewInstance(tp, config.DefaultSystem(), config.DefaultNetwork())
	if err != nil {
		t.Fatal(err)
	}
	h, err := inst.Sys.IssueCollective(collectives.AllReduce, 256<<10, "t", func(got *Handle) {
		if !got.Done() {
			t.Error("OnComplete fired with Done() == false")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if h.Done() {
		t.Fatal("Done before any event fired")
	}
	inst.Eng.Run()
	if !h.Done() {
		t.Fatal("not Done after run")
	}
}

// endpointReceive must accumulate the fractional remainder of scaled
// endpoint costs per node: truncating each message independently loses up
// to a cycle per message under fractional straggler factors (e.g. factor
// 1.5 with an odd EndpointDelay), understating straggler impact.
func TestEndpointDelayFractionalCarry(t *testing.T) {
	tp := torus(t, 2, 2, 1, topology.DefaultTorusConfig())
	cfg := config.DefaultSystem()
	cfg.EndpointDelay = 11 // odd: x1.5 = 16.5 cycles per message
	inst, err := NewInstance(tp, cfg, config.DefaultNetwork())
	if err != nil {
		t.Fatal(err)
	}
	s := inst.Sys
	if err := s.SetNodeStragglerFactor(0, 1.5); err != nil {
		t.Fatal(err)
	}

	const n = 10
	for i := 0; i < n; i++ {
		s.endpointReceive(0, 0, func() {})
	}
	// Closed form: n back-to-back messages occupy the endpoint for
	// exactly floor(n * 11 * 1.5) = 165 cycles. Per-message truncation
	// yielded 10 * 16 = 160.
	want := eventq.Time(n * 11 * 3 / 2)
	if got := s.endpointBusy[0]; got != want {
		t.Errorf("endpoint busy until %d after %d messages, want %d (truncation lost %d cycles)",
			got, n, want, want-got)
	}

	// An unscaled node must stay carry-free: integral costs accumulate
	// exactly as before.
	for i := 0; i < n; i++ {
		s.endpointReceive(1, 0, func() {})
	}
	if got := s.endpointBusy[1]; got != eventq.Time(n*11) {
		t.Errorf("nominal endpoint busy until %d, want %d", got, n*11)
	}
	inst.Eng.Run()
}

// The carry must also surface end to end: a fractional straggler factor
// must strictly slow a collective relative to nominal even when each
// message's truncated extra cost would round to the same integer.
func TestFractionalStragglerSlowsCollective(t *testing.T) {
	run := func(factor float64) eventq.Time {
		tp := torus(t, 1, 8, 1, topology.DefaultTorusConfig())
		cfg := config.DefaultSystem()
		cfg.EndpointDelay = 1 // x1.5 = 1.5: pre-fix truncation hid the straggler entirely
		inst, err := NewInstance(tp, cfg, config.DefaultNetwork())
		if err != nil {
			t.Fatal(err)
		}
		if factor != 1 {
			if err := inst.Sys.SetNodeStragglerFactor(3, factor); err != nil {
				t.Fatal(err)
			}
		}
		h, err := inst.Sys.IssueCollective(collectives.AllReduce, 256<<10, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		inst.Eng.Run()
		if !h.Done() {
			t.Fatal("did not complete")
		}
		return h.Duration()
	}
	nominal := run(1)
	slow := run(1.5)
	if slow <= nominal {
		t.Errorf("factor-1.5 straggler run (%d) not slower than nominal (%d): fractional cost truncated away",
			slow, nominal)
	}
}
