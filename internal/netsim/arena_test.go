package netsim

import (
	"testing"

	"pmsb/internal/pkt"
	"pmsb/internal/sched"
	"pmsb/internal/sim"
	"pmsb/internal/units"
)

// arenaSpec4 is a small but full-shaped reservation: 4 ports, 2 hosts,
// 2 switches whose port tables take 2 entries each.
func arenaSpec4() ArenaSpec {
	return ArenaSpec{Ports: 4, Hosts: 2, Switches: 2, PortRefs: 4}
}

// An exactly-sized spec carves with zero overflow; requests beyond the reservation fall back to the heap,
// are counted, and still return working objects.
func TestArenaCarveAndOverflow(t *testing.T) {
	eng := sim.NewEngine()
	a := NewArena(arenaSpec4())
	sink := releaseSink{}

	ports := make([]*Port, 0, 4)
	for i := 0; i < 4; i++ {
		ports = append(ports, a.NewPort(
			LocalLink(eng, 100*units.Gbps, 0, sink),
			PortConfig{Sched: sched.NewFIFO()}))
	}
	hosts := []*Host{a.NewHost(eng, 1), a.NewHost(eng, 2)}
	sw1 := a.NewSwitch(eng, 100, 2)
	sw2 := a.NewSwitch(eng, 101, 2)
	if got := a.Overflow(); got != 0 {
		t.Fatalf("overflow = %d after exactly-sized carve, want 0", got)
	}

	// Over-carve one of each kind: fail-soft heap fallback, counted.
	extraPort := a.NewPort(LocalLink(eng, 100*units.Gbps, 0, sink), PortConfig{Sched: sched.NewFIFO()})
	extraHost := a.NewHost(eng, 3)
	extraSw := a.NewSwitch(eng, 102, 2)
	if got := a.Overflow(); got != 3 {
		t.Fatalf("overflow = %d after 3 over-carves, want 3", got)
	}
	if extraPort == nil || extraHost == nil || extraSw == nil {
		t.Fatal("over-carved objects must still be constructed")
	}

	// Carved and overflowed ports both forward packets.
	for _, p := range append(ports, extraPort) {
		q := pkt.Get()
		q.Size = units.MTU
		p.Send(q)
	}
	eng.Run()
	for i, p := range append(ports, extraPort) {
		if p.TxPackets() != 1 {
			t.Fatalf("port %d forwarded %d packets, want 1", i, p.TxPackets())
		}
	}
	_ = hosts
	if sw1.NumPorts() != 0 || sw2.NumPorts() != 0 {
		t.Fatal("fresh switches must start with empty port tables")
	}
}

// Slab pointers must stay stable as later objects are carved — the
// builders hand out port/host pointers long before the slab fills.
func TestArenaPointerStability(t *testing.T) {
	eng := sim.NewEngine()
	a := NewArena(ArenaSpec{Ports: 8})
	first := a.NewPort(LocalLink(eng, 100*units.Gbps, 0, releaseSink{}),
		PortConfig{Sched: sched.NewFIFO(), BufferBytes: 12345})
	for i := 0; i < 7; i++ {
		a.NewPort(LocalLink(eng, 100*units.Gbps, 0, releaseSink{}),
			PortConfig{Sched: sched.NewFIFO()})
	}
	if first != &a.ports[0] {
		t.Fatal("first carved port moved as the slab filled")
	}
	if first.bufferBytes != 12345 {
		t.Fatalf("first port's config clobbered: bufferBytes = %d", first.bufferBytes)
	}
}

// A switch's arena-cut port table is capped: adding beyond the declared
// capacity must spill to a fresh heap slice, not clobber the next
// switch's entries in the shared reference slab.
func TestArenaSwitchPortTableCap(t *testing.T) {
	eng := sim.NewEngine()
	a := NewArena(ArenaSpec{Ports: 8, Switches: 2, PortRefs: 4})
	mkPort := func() *Port {
		return a.NewPort(LocalLink(eng, 100*units.Gbps, 0, releaseSink{}),
			PortConfig{Sched: sched.NewFIFO()})
	}
	sw1 := a.NewSwitch(eng, 100, 2)
	sw2 := a.NewSwitch(eng, 101, 2)
	sw2first := mkPort()
	sw2.AddPort(sw2first)
	sw1.AddPort(mkPort())
	sw1.AddPort(mkPort())
	sw1.AddPort(mkPort()) // beyond sw1's declared capacity
	if sw1.NumPorts() != 3 {
		t.Fatalf("sw1 ports = %d, want 3", sw1.NumPorts())
	}
	if sw2.NumPorts() != 1 || sw2.Port(0) != sw2first {
		t.Fatalf("sw1's over-add clobbered sw2's port table")
	}
}

// Packets are pool state, not arena state: with the pool's poison-debug
// mode on, traffic through arena-carved ports must release cleanly and
// leave the pool's lifecycle undisturbed (the two are orthogonal by
// design).
func TestArenaPoolDebugInterplay(t *testing.T) {
	pkt.SetPoolDebug(true)
	defer pkt.SetPoolDebug(false)

	eng := sim.NewEngine()
	a := NewArena(ArenaSpec{Ports: 1})
	port := a.NewPort(LocalLink(eng, 100*units.Gbps, 0, releaseSink{}),
		PortConfig{Sched: sched.NewFIFO()})
	for i := 0; i < 64; i++ {
		q := pkt.Get()
		q.ID = uint64(i)
		q.Size = units.MTU
		port.Send(q)
	}
	eng.Run()
	if port.TxPackets() != 64 {
		t.Fatalf("forwarded %d packets under pool debug, want 64", port.TxPackets())
	}

	// A fresh Get is clean even though every record was poison-released
	// through the arena's ports.
	q := pkt.Get()
	if q.Size != 0 || q.ID != 0 {
		t.Fatalf("pool returned dirty packet after arena reset: %+v", q)
	}
	pkt.Release(q)
}
