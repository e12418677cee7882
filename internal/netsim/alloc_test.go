package netsim

import (
	"testing"

	"pmsb/internal/obs"
	"pmsb/internal/pkt"
	"pmsb/internal/sched"
	"pmsb/internal/sim"
	"pmsb/internal/units"
)

// releaseSink returns every delivered packet to the pool, like the
// transport endpoints do.
type releaseSink struct{}

func (releaseSink) NodeID() pkt.NodeID    { return 2 }
func (releaseSink) Receive(p *pkt.Packet) { pkt.Release(p) }

// The per-packet forwarding path — pool Get, Port.Send (classify,
// enqueue), kick (dequeue, serialize via ScheduleCall), link delivery,
// sink release — must be allocation-free at steady state. This guards
// the tentpole property: simulator throughput scales with event cost,
// not garbage-collector pressure.
func TestPortSendZeroAlloc(t *testing.T) {
	eng := sim.NewEngine()
	link := NewLink(eng, 100*units.Gbps, 0, releaseSink{})
	port := NewPort(link, PortConfig{Sched: sched.NewFIFO()})

	// Warm up: grow the FIFO ring, the event heap, the engine free list
	// and the packet pool.
	for i := 0; i < 512; i++ {
		p := pkt.Get()
		p.ID = uint64(i)
		p.Size = units.MTU
		p.ECT = true
		port.Send(p)
	}
	eng.Run()

	avg := testing.AllocsPerRun(1000, func() {
		p := pkt.Get()
		p.Size = units.MTU
		p.ECT = true
		port.Send(p)
		eng.Run()
	})
	if avg != 0 {
		t.Fatalf("Port.Send+kick+deliver allocates %.2f/op at steady state, want 0", avg)
	}
	if port.DropPackets() != 0 {
		t.Fatalf("unexpected drops: %d", port.DropPackets())
	}
}

// Dropped packets also ride the allocation-free path: the shared drop
// helper releases them straight back to the pool.
func TestPortDropZeroAlloc(t *testing.T) {
	eng := sim.NewEngine()
	link := NewLink(eng, 100*units.Gbps, 0, releaseSink{})
	port := NewPort(link, PortConfig{
		Sched:  sched.NewFIFO(),
		DropFn: func(*pkt.Packet) bool { return true },
	})
	for i := 0; i < 64; i++ {
		p := pkt.Get()
		p.Size = units.MTU
		port.Send(p)
	}
	avg := testing.AllocsPerRun(1000, func() {
		p := pkt.Get()
		p.Size = units.MTU
		port.Send(p)
	})
	if avg != 0 {
		t.Fatalf("drop path allocates %.2f/op at steady state, want 0", avg)
	}
}

// With the observability layer ENABLED (probe bound, ring + counters
// live), the forwarding path must still be allocation-free: events are
// value records appended to a preallocated ring and counters are direct
// increments.
func TestPortSendZeroAllocObserved(t *testing.T) {
	eng := sim.NewEngine()
	link := NewLink(eng, 100*units.Gbps, 0, releaseSink{})
	port := NewPort(link, PortConfig{Sched: sched.NewFIFO()})
	bus := obs.NewBus(1 << 12)
	port.Observe(bus, 1000, 0)

	for i := 0; i < 512; i++ {
		p := pkt.Get()
		p.ID = uint64(i)
		p.Size = units.MTU
		p.ECT = true
		port.Send(p)
	}
	eng.Run()

	avg := testing.AllocsPerRun(1000, func() {
		p := pkt.Get()
		p.Size = units.MTU
		p.ECT = true
		port.Send(p)
		eng.Run()
	})
	if avg != 0 {
		t.Fatalf("observed Port.Send+kick allocates %.2f/op at steady state, want 0", avg)
	}
	if bus.Ring().Total() == 0 {
		t.Fatal("bus saw no events — probe not wired")
	}
	if bus.Metrics().Counter("port.1000.0.tx_pkts").Value() == 0 {
		t.Fatal("tx counter never incremented")
	}
}

// The disabled layer (no Observe call, nil probe) must add nothing to
// the baseline: this is the same guard as TestPortSendZeroAlloc but
// asserted explicitly against a port that COULD be observed, to catch
// accidental interface boxing or closure capture at the emit sites.
func TestPortSendZeroAllocUnobserved(t *testing.T) {
	eng := sim.NewEngine()
	link := NewLink(eng, 100*units.Gbps, 0, releaseSink{})
	port := NewPort(link, PortConfig{Sched: sched.NewFIFO()})
	if port.ext != nil {
		t.Fatal("new port must start unobserved (no extension block)")
	}
	for i := 0; i < 512; i++ {
		p := pkt.Get()
		p.Size = units.MTU
		port.Send(p)
	}
	eng.Run()
	avg := testing.AllocsPerRun(1000, func() {
		p := pkt.Get()
		p.Size = units.MTU
		port.Send(p)
		eng.Run()
	})
	if avg != 0 {
		t.Fatalf("unobserved port allocates %.2f/op, want 0", avg)
	}
}
