package netsim

import (
	"testing"
	"time"

	"pmsb/internal/core"
	"pmsb/internal/ecn"
	"pmsb/internal/pkt"
	"pmsb/internal/sched"
	"pmsb/internal/sim"
	"pmsb/internal/units"
)

// sink records delivered packets with their arrival times.
type sink struct {
	id      pkt.NodeID
	eng     *sim.Engine
	packets []*pkt.Packet
	times   []time.Duration
}

func (s *sink) NodeID() pkt.NodeID { return s.id }
func (s *sink) Receive(p *pkt.Packet) {
	s.packets = append(s.packets, p)
	s.times = append(s.times, s.eng.Now())
}

func dataPkt(id uint64, size int) *pkt.Packet {
	return &pkt.Packet{ID: id, Size: size, Payload: size - units.HeaderSize, ECT: true}
}

func TestLinkDeliveryTiming(t *testing.T) {
	eng := sim.NewEngine()
	dst := &sink{id: 2, eng: eng}
	link := NewLink(eng, 10*units.Gbps, 2*time.Microsecond, dst)
	port := NewPort(link, PortConfig{Sched: sched.NewFIFO()})

	port.Send(dataPkt(1, units.MTU))
	eng.Run()

	// 1500B at 10G = 1.2us serialization + 2us propagation = 3.2us.
	if len(dst.times) != 1 || dst.times[0] != 3200*time.Nanosecond {
		t.Fatalf("arrival = %v, want 3.2us", dst.times)
	}
}

func TestPortBackToBackSerialization(t *testing.T) {
	eng := sim.NewEngine()
	dst := &sink{id: 2, eng: eng}
	link := NewLink(eng, 10*units.Gbps, 0, dst)
	port := NewPort(link, PortConfig{Sched: sched.NewFIFO()})

	for i := 0; i < 3; i++ {
		port.Send(dataPkt(uint64(i), units.MTU))
	}
	eng.Run()

	want := []time.Duration{1200 * time.Nanosecond, 2400 * time.Nanosecond, 3600 * time.Nanosecond}
	if len(dst.times) != 3 {
		t.Fatalf("delivered %d packets, want 3", len(dst.times))
	}
	for i := range want {
		if dst.times[i] != want[i] {
			t.Fatalf("packet %d at %v, want %v", i, dst.times[i], want[i])
		}
		if dst.packets[i].ID != uint64(i) {
			t.Fatalf("packet %d out of order", i)
		}
	}
	if port.TxPackets() != 3 {
		t.Fatalf("tx counter = %d pkts, want 3", port.TxPackets())
	}
}

func TestPortTailDrop(t *testing.T) {
	eng := sim.NewEngine()
	dst := &sink{id: 2, eng: eng}
	link := NewLink(eng, 10*units.Gbps, 0, dst)
	port := NewPort(link, PortConfig{
		Sched:       sched.NewFIFO(),
		BufferBytes: 2 * units.MTU,
	})
	// First packet goes straight to the transmitter (leaves the queue),
	// so two more fit in the buffer; the fourth must be dropped.
	for i := 0; i < 4; i++ {
		port.Send(dataPkt(uint64(i), units.MTU))
	}
	if port.DropPackets() != 1 {
		t.Fatalf("drops = %d, want 1", port.DropPackets())
	}
	eng.Run()
	if len(dst.packets) != 3 {
		t.Fatalf("delivered %d, want 3", len(dst.packets))
	}
}

func TestPortEnqueueMarking(t *testing.T) {
	eng := sim.NewEngine()
	dst := &sink{id: 2, eng: eng}
	link := NewLink(eng, 10*units.Gbps, 0, dst)
	// Mark when the queue already holds >= 1 packet at enqueue time.
	port := NewPort(link, PortConfig{
		Sched:  sched.NewFIFO(),
		Marker: &ecn.PerQueueStandard{K: units.MTU},
	})

	// p0 enters an empty queue (no mark) and starts transmitting;
	// p1 also sees an empty queue (p0 left); p2 sees p1 buffered: mark.
	for i := 0; i < 3; i++ {
		port.Send(dataPkt(uint64(i), units.MTU))
	}
	eng.Run()
	if dst.packets[0].CE || dst.packets[1].CE {
		t.Fatal("first two packets must not be marked")
	}
	if !dst.packets[2].CE {
		t.Fatal("third packet must be marked at enqueue")
	}
	if port.MarkedPackets() != 1 {
		t.Fatalf("MarkedPackets = %d, want 1", port.MarkedPackets())
	}
}

func TestPortDequeueMarkingTCN(t *testing.T) {
	eng := sim.NewEngine()
	dst := &sink{id: 2, eng: eng}
	link := NewLink(eng, 10*units.Gbps, 0, dst)
	port := NewPort(link, PortConfig{
		Sched:  sched.NewFIFO(),
		Marker: &ecn.TCN{Threshold: 2 * time.Microsecond},
	})

	// 4 back-to-back packets at 1.2us serialization: sojourns are
	// 0, 1.2, 2.4, 3.6us; with a 2us threshold packets 2,3 get marked.
	for i := 0; i < 4; i++ {
		port.Send(dataPkt(uint64(i), units.MTU))
	}
	eng.Run()
	wantCE := []bool{false, false, true, true}
	for i, want := range wantCE {
		if dst.packets[i].CE != want {
			t.Fatalf("packet %d CE = %v, want %v", i, dst.packets[i].CE, want)
		}
	}
}

func TestNonECTNeverMarked(t *testing.T) {
	eng := sim.NewEngine()
	dst := &sink{id: 2, eng: eng}
	link := NewLink(eng, 10*units.Gbps, 0, dst)
	port := NewPort(link, PortConfig{
		Sched:  sched.NewFIFO(),
		Marker: &ecn.PerPort{K: 0}, // marks everything ECT
	})
	p := dataPkt(1, units.MTU)
	p.ECT = false
	port.Send(p)
	eng.Run()
	if dst.packets[0].CE {
		t.Fatal("non-ECT packet was marked")
	}
}

func TestPortPMSBIntegration(t *testing.T) {
	eng := sim.NewEngine()
	dst := &sink{id: 2, eng: eng}
	link := NewLink(eng, 10*units.Gbps, 0, dst)
	port := NewPort(link, PortConfig{
		Sched:  sched.NewDWRR([]float64{1, 1}, units.MTU),
		Marker: &core.PMSB{PortK: 4 * units.MTU},
	})

	// Fill queue 1 with 6 packets, then send one packet to queue 0:
	// port exceeds 4 pkts but queue 0 holds < 2 pkts => blind.
	for i := 0; i < 6; i++ {
		p := dataPkt(uint64(i), units.MTU)
		p.Service = 1
		port.Send(p)
	}
	victim := dataPkt(100, units.MTU)
	victim.Service = 0
	port.Send(victim)
	eng.Run()

	for _, p := range dst.packets {
		if p.ID == 100 && p.CE {
			t.Fatal("PMSB marked the victim packet in the empty queue")
		}
	}
	// Queue 1 packets above its 2-pkt filter must carry marks.
	marked := 0
	for _, p := range dst.packets {
		if p.CE {
			marked++
		}
	}
	if marked == 0 {
		t.Fatal("PMSB never marked the congested queue")
	}
}

func TestHostDemux(t *testing.T) {
	eng := sim.NewEngine()
	h := NewHost(eng, 1)
	var got []pkt.FlowID
	h.Attach(7, HandlerFunc(func(p *pkt.Packet) { got = append(got, p.Flow) }))
	h.Receive(&pkt.Packet{Flow: 7, Size: 100})
	h.Receive(&pkt.Packet{Flow: 9, Size: 100}) // unclaimed
	if len(got) != 1 || got[0] != 7 {
		t.Fatalf("handler got %v", got)
	}
	if h.UnclaimedPackets() != 1 {
		t.Fatalf("UnclaimedPackets = %d, want 1", h.UnclaimedPackets())
	}
	if h.RxPackets() != 2 || h.RxBytes() != 200 {
		t.Fatalf("rx counters wrong: %d/%d", h.RxPackets(), h.RxBytes())
	}
}

func TestHostSendWithoutNIC(t *testing.T) {
	eng := sim.NewEngine()
	h := NewHost(eng, 1)
	h.Send(&pkt.Packet{})
	if h.UnclaimedPackets() != 1 {
		t.Fatal("send without NIC should count as unclaimed")
	}
}

func TestSwitchRouting(t *testing.T) {
	eng := sim.NewEngine()
	dstA := &sink{id: 10, eng: eng}
	dstB := &sink{id: 11, eng: eng}
	sw := NewSwitch(eng, 1)
	pa := NewPort(NewLink(eng, 10*units.Gbps, 0, dstA), PortConfig{Sched: sched.NewFIFO()})
	pb := NewPort(NewLink(eng, 10*units.Gbps, 0, dstB), PortConfig{Sched: sched.NewFIFO()})
	sw.AddPort(pa)
	sw.AddPort(pb)
	sw.SetRoute(func(p *pkt.Packet) int {
		switch p.Dst {
		case 10:
			return 0
		case 11:
			return 1
		default:
			return -1
		}
	})

	sw.Receive(&pkt.Packet{Dst: 10, Size: 100})
	sw.Receive(&pkt.Packet{Dst: 11, Size: 100})
	sw.Receive(&pkt.Packet{Dst: 99, Size: 100})
	eng.Run()

	if len(dstA.packets) != 1 || len(dstB.packets) != 1 {
		t.Fatalf("deliveries: A=%d B=%d, want 1/1", len(dstA.packets), len(dstB.packets))
	}
	if sw.RouteDrops() != 1 {
		t.Fatalf("RouteDrops = %d, want 1", sw.RouteDrops())
	}
	if sw.NumPorts() != 2 || sw.Port(0) != pa {
		t.Fatal("port registry broken")
	}
}

func TestPoolAccounting(t *testing.T) {
	eng := sim.NewEngine()
	dst := &sink{id: 2, eng: eng}
	pool := &ecn.Pool{}
	// Slow link so packets actually sit in the pool.
	link := NewLink(eng, 100*units.Mbps, 0, dst)
	port := NewPort(link, PortConfig{Sched: sched.NewFIFO(), Pool: pool})
	for i := 0; i < 5; i++ {
		port.Send(dataPkt(uint64(i), units.MTU))
	}
	// One packet is in flight (dequeued), four buffered.
	if pool.Bytes() != 4*units.MTU {
		t.Fatalf("pool = %d, want %d", pool.Bytes(), 4*units.MTU)
	}
	eng.Run()
	if pool.Bytes() != 0 {
		t.Fatalf("pool after drain = %d, want 0", pool.Bytes())
	}
}
