package noc

// Regression tests for the path-class packet sizing fix, the exhaustive
// PacketSizeFor switch, and free-list poisoning.

import (
	"strings"
	"testing"

	"astrasim/internal/config"
	"astrasim/internal/eventq"
	"astrasim/internal/topology"
)

// torus2x2 builds a 2x2x1 torus whose local links (IntraPackage, 512 B
// packets by default) and horizontal links (InterPackage, 256 B) have
// different packet-size classes.
func torus2x2(t *testing.T, p config.Network) (*eventq.Engine, *topology.Hierarchical, *Network) {
	t.Helper()
	topo, err := topology.NewTorus(2, 2, 1, topology.TorusConfig{LocalRings: 1, HorizontalRings: 1, VerticalRings: 1})
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

// A message whose path starts on a large-packet link but crosses a
// smaller-packet class must be chunked for the tightest hop. Sizing by the
// first link's class (the old behavior) pushed 512-byte packets through a
// 256-byte-class link, overflowing its per-class buffer accounting.
func TestMixedClassPathUsesSmallestPacketSize(t *testing.T) {
	p := exact(config.DefaultNetwork())
	eng, topo, net := torus2x2(t, p)

	lr := topo.RingOf(topology.DimLocal, 0, 0)
	mid := lr.Next(0)
	hr := topo.RingOf(topology.DimHorizontal, mid, 0)
	localLink, horizLink := lr.LinkFrom(0), hr.LinkFrom(mid)

	links := topo.Links()
	if links[localLink].Class == links[horizLink].Class {
		t.Fatalf("test topology lost its mixed-class path: both links are %v", links[localLink].Class)
	}
	small := net.PacketSizeFor(links[horizLink].Class)
	if big := net.PacketSizeFor(links[localLink].Class); big <= small {
		t.Fatalf("default config no longer has local packets (%d) larger than package packets (%d)", big, small)
	}

	var got *Message
	const bytes = 1024
	net.Send(&Message{
		Src: 0, Dst: hr.Next(mid), Bytes: bytes,
		Path:        []topology.LinkID{localLink, horizLink},
		OnDelivered: func(m *Message) { got = m },
	})
	eng.Run()
	if got == nil {
		t.Fatal("mixed-class message not delivered")
	}

	wantPkts := uint64(bytes / int64(small)) // 4 packets of 256 B; was 2 of 512 B
	for _, id := range []topology.LinkID{localLink, horizLink} {
		st := net.LinkStatsFor(id)
		if st.Packets != wantPkts {
			t.Errorf("link %d (%v) carried %d packets, want %d of %d bytes",
				id, links[id].Class, st.Packets, wantPkts, small)
		}
		if st.Bytes != bytes {
			t.Errorf("link %d carried %d bytes, want %d", id, st.Bytes, bytes)
		}
	}
}

// PacketSizeFor must refuse unknown link classes instead of silently
// defaulting to the inter-package size.
func TestPacketSizeForUnknownClassPanics(t *testing.T) {
	_, _, net := ring4(t, config.DefaultNetwork())
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("PacketSizeFor(unknown class) did not panic")
		}
		if !strings.Contains(r.(string), "no packet size") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	net.PacketSizeFor(topology.LinkClass(42))
}

// With poisoning on, a full multi-packet run must still complete cleanly:
// every free/realloc cycle restores a live packet.
func TestPoisonedFreeListCleanRun(t *testing.T) {
	p := exact(config.DefaultNetwork())
	eng, topo, net := ring4(t, p)
	net.SetPoisonFreeList(true)
	r := topo.RingOf(topology.DimLocal, 0, 0)
	delivered := 0
	// Several messages so the free list recycles packets mid-run.
	for i := 0; i < 4; i++ {
		src := r.Nodes[i]
		net.Send(&Message{
			Src: src, Dst: r.Next(src), Bytes: 16384,
			Path:        topo.PathLinks(topology.DimLocal, 0, src, r.Next(src)),
			OnDelivered: func(*Message) { delivered++ },
		})
	}
	eng.Run()
	if delivered != 4 {
		t.Fatalf("delivered %d messages, want 4", delivered)
	}
}

func TestPoisonDetectsDoubleFree(t *testing.T) {
	_, _, net := ring4(t, config.DefaultNetwork())
	net.SetPoisonFreeList(true)
	p := net.allocPacket(&net.pktFree, &Message{Bytes: 64}, 64, 0)
	net.freePacket(&net.pktFree, p)
	defer func() {
		if recover() == nil {
			t.Fatal("double free not detected")
		}
	}()
	net.freePacket(&net.pktFree, p)
}

func TestPoisonDetectsUseAfterFree(t *testing.T) {
	_, _, net := ring4(t, config.DefaultNetwork())
	net.SetPoisonFreeList(true)
	p := net.allocPacket(&net.pktFree, &Message{Bytes: 64}, 64, 0)
	net.freePacket(&net.pktFree, p)
	defer func() {
		if recover() == nil {
			t.Fatal("use of freed packet not detected")
		}
	}()
	net.checkAlive(p, "test")
}

// Reallocation after a poisoned free must hand back a fully re-stamped,
// live packet.
func TestPoisonedPacketRecycledClean(t *testing.T) {
	_, _, net := ring4(t, config.DefaultNetwork())
	net.SetPoisonFreeList(true)
	p := net.allocPacket(&net.pktFree, &Message{Bytes: 64}, 64, 0)
	net.freePacket(&net.pktFree, p)
	q := net.allocPacket(&net.pktFree, &Message{Bytes: 128}, 128, 1)
	if q != p {
		t.Fatal("free list did not recycle the freed packet")
	}
	if q.bytes != 128 || q.pathPos != 1 {
		t.Fatalf("recycled packet not re-stamped: bytes=%d pathPos=%d", q.bytes, q.pathPos)
	}
	net.checkAlive(q, "test") // must not panic
}
