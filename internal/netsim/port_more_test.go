package netsim

import (
	"testing"
	"time"

	"pmsb/internal/ecn"
	"pmsb/internal/pkt"
	"pmsb/internal/sched"
	"pmsb/internal/sim"
	"pmsb/internal/units"
)

func TestPortDefaultClassifierModulo(t *testing.T) {
	eng := sim.NewEngine()
	dst := &sink{id: 2, eng: eng}
	link := NewLink(eng, 100*units.Mbps, 0, dst)
	port := NewPort(link, PortConfig{Sched: sched.NewWFQ([]float64{1, 1, 1})})
	for service := 0; service < 6; service++ {
		p := dataPkt(uint64(service), units.MTU)
		p.Service = service
		port.Send(p)
	}
	// First packet went straight to the wire; remaining five spread by
	// service % 3: services 1,2,3,4,5 -> queues 1,2,0,1,2.
	if port.QueuePackets(0) != 1 || port.QueuePackets(1) != 2 || port.QueuePackets(2) != 2 {
		t.Fatalf("modulo classification wrong: %d/%d/%d",
			port.QueuePackets(0), port.QueuePackets(1), port.QueuePackets(2))
	}
	// Negative service must not panic and must stay in range.
	neg := dataPkt(99, units.MTU)
	neg.Service = -4
	port.Send(neg)
}

func TestPortViewExposure(t *testing.T) {
	eng := sim.NewEngine()
	dst := &sink{id: 2, eng: eng}
	wfq := sched.NewWFQ([]float64{1, 3})
	port := NewPort(NewLink(eng, 10*units.Gbps, 0, dst), PortConfig{Sched: wfq})
	if port.NumQueues() != 2 {
		t.Fatal("NumQueues")
	}
	if port.Weight(1) != 3 || port.WeightSum() != 4 {
		t.Fatal("weights not exposed")
	}
	if port.LinkRate() != 10*units.Gbps {
		t.Fatal("LinkRate")
	}
	if port.Round() != nil {
		t.Fatal("WFQ port must expose no round info")
	}

	dwrrPort := NewPort(NewLink(eng, 10*units.Gbps, 0, dst), PortConfig{
		Sched: sched.NewDWRR([]float64{1}, units.MTU, sched.WithClock(eng.Now)),
	})
	if dwrrPort.Round() == nil {
		t.Fatal("DWRR port must expose round info")
	}

	eng.Schedule(7*time.Microsecond, func() {})
	eng.Run()
	if port.Now() != 7*time.Microsecond {
		t.Fatal("Now not wired to the engine")
	}
}

func TestPortMultipleTaps(t *testing.T) {
	eng := sim.NewEngine()
	dst := &sink{id: 2, eng: eng}
	port := NewPort(NewLink(eng, 10*units.Gbps, 0, dst), PortConfig{Sched: sched.NewFIFO()})
	var order []string
	port.OnEnqueue(func(*pkt.Packet, int) { order = append(order, "e1") })
	port.OnEnqueue(func(*pkt.Packet, int) { order = append(order, "e2") })
	port.OnDequeue(func(*pkt.Packet, int) { order = append(order, "d1") })
	port.Send(dataPkt(1, units.MTU))
	eng.Run()
	// Taps fire in registration order; dequeue happens via kick after
	// enqueue taps.
	want := []string{"e1", "e2", "d1"}
	if len(order) != len(want) {
		t.Fatalf("taps fired %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("taps fired %v, want %v", order, want)
		}
	}
}

func TestPortDropFnBeforeBuffer(t *testing.T) {
	eng := sim.NewEngine()
	dst := &sink{id: 2, eng: eng}
	port := NewPort(NewLink(eng, 10*units.Gbps, 0, dst), PortConfig{
		Sched:  sched.NewFIFO(),
		DropFn: func(p *pkt.Packet) bool { return p.ID == 7 },
	})
	port.Send(dataPkt(7, units.MTU))
	port.Send(dataPkt(8, units.MTU))
	eng.Run()
	if port.DropPackets() != 1 {
		t.Fatalf("drops = %d, want 1", port.DropPackets())
	}
	if len(dst.packets) != 1 || dst.packets[0].ID != 8 {
		t.Fatal("surviving packet not delivered")
	}
}

func TestPortRequiresScheduler(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewPort without a scheduler must panic")
		}
	}()
	eng := sim.NewEngine()
	NewPort(NewLink(eng, units.Gbps, 0, &sink{}), PortConfig{})
}

func TestMarkerNilMeansNoMarking(t *testing.T) {
	eng := sim.NewEngine()
	dst := &sink{id: 2, eng: eng}
	port := NewPort(NewLink(eng, units.Gbps, 0, dst), PortConfig{Sched: sched.NewFIFO()})
	for i := 0; i < 20; i++ {
		port.Send(dataPkt(uint64(i), units.MTU))
	}
	eng.Run()
	for _, p := range dst.packets {
		if p.CE {
			t.Fatal("nil marker must never mark")
		}
	}
	if port.MarkedPackets() != 0 {
		t.Fatal("MarkedPackets must stay 0 with nil marker")
	}
	_ = ecn.None{} // the explicit no-op marker is equivalent
}
