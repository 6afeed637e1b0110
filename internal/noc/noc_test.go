package noc

import (
	"testing"

	"astrasim/internal/config"
	"astrasim/internal/eventq"
	"astrasim/internal/topology"
)

// ring4 builds a 4-node local ring (single channel) with default params.
func ring4(t *testing.T, p config.Network) (*eventq.Engine, *topology.Hierarchical, *Network) {
	t.Helper()
	topo, err := topology.NewTorus(4, 1, 1, topology.TorusConfig{LocalRings: 1, HorizontalRings: 1, VerticalRings: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng := eventq.New()
	net, err := New(eng, topo, p)
	if err != nil {
		t.Fatal(err)
	}
	return eng, topo, net
}

func exact(p config.Network) config.Network {
	p.MaxPacketsPerMessage = 0
	return p
}

func TestSinglePacketLatency(t *testing.T) {
	p := exact(config.DefaultNetwork())
	eng, topo, net := ring4(t, p)
	r := topo.RingOf(topology.DimLocal, 0, 0)
	var got *Message
	msg := &Message{
		Src: 0, Dst: r.Next(0), Bytes: 512,
		Path:        topo.PathLinks(topology.DimLocal, 0, 0, r.Next(0)),
		OnDelivered: func(m *Message) { got = m },
	}
	net.Send(msg)
	eng.Run()
	if got == nil {
		t.Fatal("message not delivered")
	}
	// ser = floor(512 / (200 * 0.94)) = 2 cycles (carry 0.72); + 90 link
	// + 1 router.
	want := eventq.Time(2 + 90 + 1)
	if got.Delivered != want {
		t.Errorf("delivered at %d, want %d", got.Delivered, want)
	}
	if got.QueueDelay() != 0 {
		t.Errorf("queue delay %d, want 0", got.QueueDelay())
	}
	if got.NetworkDelay() != want {
		t.Errorf("network delay %d, want %d", got.NetworkDelay(), want)
	}
}

func TestMultiPacketSerialization(t *testing.T) {
	p := exact(config.DefaultNetwork())
	eng, topo, net := ring4(t, p)
	r := topo.RingOf(topology.DimLocal, 0, 0)
	var got *Message
	// 16 KB = 32 packets of 512 B; each packet serializes in 3 cycles.
	msg := &Message{
		Src: 0, Dst: r.Next(0), Bytes: 16384,
		Path:        topo.PathLinks(topology.DimLocal, 0, 0, r.Next(0)),
		OnDelivered: func(m *Message) { got = m },
	}
	net.Send(msg)
	eng.Run()
	if got == nil {
		t.Fatal("not delivered")
	}
	// Cumulative serialization: floor(16384 / 188) = 87 cycles.
	want := eventq.Time(87 + 90 + 1)
	if got.Delivered != want {
		t.Errorf("delivered at %d, want %d (87 serialization cycles + hop)", got.Delivered, want)
	}
	st := net.LinkStatsFor(r.LinkFrom(0))
	if st.Packets != 32 || st.Bytes != 16384 {
		t.Errorf("link stats packets=%d bytes=%d, want 32/16384", st.Packets, st.Bytes)
	}
	if st.BusyCycles != 87 {
		t.Errorf("busy cycles = %d, want 87", st.BusyCycles)
	}
}

func TestQueueingDelay(t *testing.T) {
	p := exact(config.DefaultNetwork())
	eng, topo, net := ring4(t, p)
	r := topo.RingOf(topology.DimLocal, 0, 0)
	path := topo.PathLinks(topology.DimLocal, 0, 0, r.Next(0))
	var first, second *Message
	m1 := &Message{Src: 0, Dst: r.Next(0), Bytes: 512 * 100, Path: path,
		OnDelivered: func(m *Message) { first = m }}
	m2 := &Message{Src: 0, Dst: r.Next(0), Bytes: 512, Path: path,
		OnDelivered: func(m *Message) { second = m }}
	net.Send(m1)
	net.Send(m2)
	eng.Run()
	if first == nil || second == nil {
		t.Fatal("messages not delivered")
	}
	// 100 packets ahead: floor(51200 / 188) = 272 cycles of serialization.
	if second.QueueDelay() != 272 {
		t.Errorf("second message queue delay = %d, want 272", second.QueueDelay())
	}
	if second.Delivered < first.Delivered {
		t.Error("FIFO violated: second message overtook the first on one link")
	}
}

func TestMessagesOnDifferentLinksDontInterfere(t *testing.T) {
	p := exact(config.DefaultNetwork())
	eng, topo, net := ring4(t, p)
	r := topo.RingOf(topology.DimLocal, 0, 0)
	var d0, d1 eventq.Time
	for i, n := range []topology.Node{0, 1} {
		i := i
		next := r.Next(n)
		msg := &Message{Src: n, Dst: next, Bytes: 4096,
			Path: topo.PathLinks(topology.DimLocal, 0, n, next),
			OnDelivered: func(m *Message) {
				if i == 0 {
					d0 = m.Delivered
				} else {
					d1 = m.Delivered
				}
			}}
		net.Send(msg)
	}
	eng.Run()
	if d0 != d1 {
		t.Errorf("parallel transfers on distinct links finished at %d and %d, want equal", d0, d1)
	}
}

func TestPipeliningAcrossSwitchHops(t *testing.T) {
	// A 2-hop path (NPU -> switch -> NPU) must pipeline packets: total
	// time should be far below 2x the full serialization time.
	p := exact(config.DefaultNetwork())
	topo, err := topology.NewA2A(1, 4, topology.A2AConfig{LocalRings: 1, GlobalSwitches: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng := eventq.New()
	net, err := New(eng, topo, p)
	if err != nil {
		t.Fatal(err)
	}
	var got *Message
	// 256 KB over 25 GB/s inter-package links: 1024 packets of 256 B.
	msg := &Message{Src: 0, Dst: 2, Bytes: 262144,
		Path:        topo.PathLinks(topology.DimPackage, 0, 0, 2),
		OnDelivered: func(m *Message) { got = m }}
	net.Send(msg)
	eng.Run()
	if got == nil {
		t.Fatal("not delivered")
	}
	effBW := 25 * 0.94
	oneHopSer := eventq.Time(262144 / effBW)
	// Pipelined: ~ser + 1 packet + 2 hops of latency. Unpipelined would
	// be ~2x oneHopSer.
	if got.Delivered > oneHopSer+11+2*(200+1)+100 {
		t.Errorf("delivered at %d; expected pipelined ~%d, not store-and-forward %d",
			got.Delivered, oneHopSer, 2*oneHopSer)
	}
	if got.Delivered < oneHopSer {
		t.Errorf("delivered at %d, impossibly faster than serialization %d", got.Delivered, oneHopSer)
	}
}

func TestBackpressureBlocksUpstream(t *testing.T) {
	// Tiny buffers on a shared switch down-link force head-of-line
	// blocking on the up links.
	p := exact(config.DefaultNetwork())
	p.VCsPerVNet = 1
	p.BuffersPerVC = 2
	topo, err := topology.NewA2A(1, 3, topology.A2AConfig{LocalRings: 1, GlobalSwitches: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng := eventq.New()
	net, err := New(eng, topo, p)
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	for _, src := range []topology.Node{0, 1} {
		msg := &Message{Src: src, Dst: 2, Bytes: 65536,
			Path:        topo.PathLinks(topology.DimPackage, 0, src, 2),
			OnDelivered: func(*Message) { delivered++ }}
		net.Send(msg)
	}
	eng.Run()
	if delivered != 2 {
		t.Fatalf("delivered %d messages, want 2", delivered)
	}
	if !net.Quiet() {
		t.Error("network not quiet after run")
	}
	var blocked eventq.Time
	for _, l := range topo.Links() {
		blocked += net.LinkStatsFor(l.ID).BlockedCycles
	}
	if blocked == 0 {
		t.Error("expected head-of-line blocking with 2-packet buffers, got none")
	}
}

func TestPacketCapPreservesSerializationTime(t *testing.T) {
	run := func(cap int) (eventq.Time, int64) {
		p := config.DefaultNetwork()
		p.MaxPacketsPerMessage = cap
		eng, topo, net := ring4(t, p)
		r := topo.RingOf(topology.DimLocal, 0, 0)
		var done eventq.Time
		msg := &Message{Src: 0, Dst: r.Next(0), Bytes: 1 << 20,
			Path:        topo.PathLinks(topology.DimLocal, 0, 0, r.Next(0)),
			OnDelivered: func(m *Message) { done = m.Delivered }}
		net.Send(msg)
		eng.Run()
		st := net.LinkStatsFor(r.LinkFrom(0))
		return done, st.Bytes
	}
	exactTime, exactBytes := run(0)
	cappedTime, cappedBytes := run(16)
	if exactBytes != cappedBytes {
		t.Errorf("bytes differ: exact %d vs capped %d", exactBytes, cappedBytes)
	}
	// Same total serialization work; only rounding differs.
	diff := int64(exactTime) - int64(cappedTime)
	if diff < 0 {
		diff = -diff
	}
	if diff > int64(exactTime)/100+64 {
		t.Errorf("capped delivery %d deviates too much from exact %d", cappedTime, exactTime)
	}
}

func TestSendPanics(t *testing.T) {
	_, topo, net := ring4(t, config.DefaultNetwork())
	r := topo.RingOf(topology.DimLocal, 0, 0)
	path := topo.PathLinks(topology.DimLocal, 0, 0, r.Next(0))
	for name, msg := range map[string]*Message{
		"empty path": {Src: 0, Dst: 1, Bytes: 10},
		"zero bytes": {Src: 0, Dst: 1, Bytes: 0, Path: path},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			net.Send(msg)
		}()
	}
}

func TestInvalidParamsRejected(t *testing.T) {
	topo, _ := topology.NewTorus(2, 1, 1, topology.TorusConfig{LocalRings: 1, HorizontalRings: 1, VerticalRings: 1})
	p := config.DefaultNetwork()
	p.LocalLinkBandwidth = 0
	if _, err := New(eventq.New(), topo, p); err == nil {
		t.Error("expected error for zero bandwidth")
	}
}

func TestTotalBytesByClass(t *testing.T) {
	p := exact(config.DefaultNetwork())
	eng, topo, net := ring4(t, p)
	r := topo.RingOf(topology.DimLocal, 0, 0)
	msg := &Message{Src: 0, Dst: r.Next(0), Bytes: 1000,
		Path: topo.PathLinks(topology.DimLocal, 0, 0, r.Next(0))}
	net.Send(msg)
	eng.Run()
	intra, inter, scaleOut := net.TotalBytesByClass()
	if intra != 1000 || inter != 0 || scaleOut != 0 {
		t.Errorf("bytes by class = %d/%d/%d, want 1000/0/0", intra, inter, scaleOut)
	}
}

func TestBandwidthSaturation(t *testing.T) {
	// Sustained traffic should achieve ~the effective link bandwidth.
	p := exact(config.DefaultNetwork())
	eng, topo, net := ring4(t, p)
	r := topo.RingOf(topology.DimLocal, 0, 0)
	path := topo.PathLinks(topology.DimLocal, 0, 0, r.Next(0))
	total := int64(0)
	var last eventq.Time
	for i := 0; i < 50; i++ {
		b := int64(512 * 64)
		total += b
		net.Send(&Message{Src: 0, Dst: r.Next(0), Bytes: b, Path: path,
			OnDelivered: func(m *Message) { last = m.Delivered }})
	}
	eng.Run()
	effBW := 200.0 * 0.94
	ideal := float64(total) / effBW
	achieved := float64(total) / float64(last)
	if achieved < 0.85*effBW {
		t.Errorf("achieved %.1f B/cycle, want >= 85%% of %.1f (ideal finish %.0f, got %d)",
			achieved, effBW, ideal, last)
	}
}

func TestUtilizationByClass(t *testing.T) {
	p := exact(config.DefaultNetwork())
	eng, topo, net := ring4(t, p)
	r := topo.RingOf(topology.DimLocal, 0, 0)
	var done eventq.Time
	net.Send(&Message{Src: 0, Dst: r.Next(0), Bytes: 188 * 100, // 100 cycles of serialization
		Path:        topo.PathLinks(topology.DimLocal, 0, 0, r.Next(0)),
		OnDelivered: func(m *Message) { done = m.Delivered }})
	eng.Run()
	u := net.UtilizationByClass(done)[topology.IntraPackage]
	if u.Links != 4 {
		t.Errorf("links = %d, want 4", u.Links)
	}
	// One of four links busy for ~100 of ~191 cycles.
	if u.PeakBusy < 0.4 || u.PeakBusy > 0.6 {
		t.Errorf("peak busy = %.2f, want ~0.52", u.PeakBusy)
	}
	if want := u.PeakBusy / 4; u.AvgBusy < want*0.99 || u.AvgBusy > want*1.01 {
		t.Errorf("avg busy = %.3f, want %.3f (single active link)", u.AvgBusy, want)
	}
	if len(net.UtilizationByClass(0)) != 0 {
		t.Error("zero window should yield empty report")
	}
}
