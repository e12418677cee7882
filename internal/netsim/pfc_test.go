package netsim

import (
	"testing"
	"time"

	"pmsb/internal/pkt"
	"pmsb/internal/sched"
	"pmsb/internal/sim"
	"pmsb/internal/units"
)

func TestPortPauseResume(t *testing.T) {
	eng := sim.NewEngine()
	dst := &sink{id: 2, eng: eng}
	port := NewPort(NewLink(eng, 10*units.Gbps, 0, dst), PortConfig{Sched: sched.NewFIFO()})
	port.Pause()
	if !port.paused {
		t.Fatal("Pause did not pause the port")
	}
	port.Send(dataPkt(1, units.MTU))
	eng.Run()
	if len(dst.packets) != 0 {
		t.Fatal("paused port transmitted")
	}
	port.Resume()
	port.Resume() // idempotent
	eng.Run()
	if len(dst.packets) != 1 {
		t.Fatal("resume did not restart the transmitter")
	}
}

// pfcPair builds host A -> switch S1 -> switch S2 -> sink, with PFC
// guarding S2 and pausing S1's transmitter. S2's egress is slow so it
// congests.
func TestPFCPreventsLoss(t *testing.T) {
	eng := sim.NewEngine()
	sinkNode := &sink{id: 9, eng: eng}

	s2 := NewSwitch(eng, 2)
	// Slow egress, tiny buffer: without PFC this drops heavily.
	egress := NewPort(NewLink(eng, 100*units.Mbps, 0, sinkNode),
		PortConfig{Sched: sched.NewFIFO(), BufferBytes: units.Packets(10)})
	s2.AddPort(egress)
	s2.SetRoute(func(*pkt.Packet) int { return 0 })

	s1 := NewSwitch(eng, 1)
	toS2 := NewPort(NewLink(eng, 10*units.Gbps, time.Microsecond, s2),
		PortConfig{Sched: sched.NewFIFO()})
	s1.AddPort(toS2)
	s1.SetRoute(func(*pkt.Packet) int { return 0 })

	fc := NewPFC(eng, units.Packets(6), units.Packets(3))
	fc.Guard(s2)
	fc.Upstream(toS2)

	for i := 0; i < 200; i++ {
		s1.Receive(dataPkt(uint64(i), units.MTU))
	}
	eng.Run()

	if egress.DropPackets() != 0 {
		t.Fatalf("PFC fabric dropped %d packets, want 0 (lossless)", egress.DropPackets())
	}
	if fc.Pauses() == 0 {
		t.Fatal("expected pause events")
	}
	if fc.paused {
		t.Fatal("drained fabric should be unpaused")
	}
	if len(sinkNode.packets) != 200 {
		t.Fatalf("delivered %d/200", len(sinkNode.packets))
	}
}

func TestWithoutPFCSameScenarioDrops(t *testing.T) {
	eng := sim.NewEngine()
	sinkNode := &sink{id: 9, eng: eng}
	s2 := NewSwitch(eng, 2)
	egress := NewPort(NewLink(eng, 100*units.Mbps, 0, sinkNode),
		PortConfig{Sched: sched.NewFIFO(), BufferBytes: units.Packets(10)})
	s2.AddPort(egress)
	s2.SetRoute(func(*pkt.Packet) int { return 0 })
	s1 := NewSwitch(eng, 1)
	s1.AddPort(NewPort(NewLink(eng, 10*units.Gbps, time.Microsecond, s2),
		PortConfig{Sched: sched.NewFIFO()}))
	s1.SetRoute(func(*pkt.Packet) int { return 0 })
	for i := 0; i < 200; i++ {
		s1.Receive(dataPkt(uint64(i), units.MTU))
	}
	eng.Run()
	if egress.DropPackets() == 0 {
		t.Fatal("control run should drop without PFC")
	}
}

// TestPFCHeadOfLineBlocking: a victim flow to an idle destination shares
// the paused upstream port with the congested flow — PAUSE stalls both.
// This is the classic PFC pathology that motivates end-to-end ECN
// control (DCQCN) on top of lossless fabrics.
func TestPFCHeadOfLineBlocking(t *testing.T) {
	eng := sim.NewEngine()
	slowSink := &sink{id: 8, eng: eng}
	fastSink := &sink{id: 9, eng: eng}

	s2 := NewSwitch(eng, 2)
	slowEgress := NewPort(NewLink(eng, 50*units.Mbps, 0, slowSink),
		PortConfig{Sched: sched.NewFIFO(), BufferBytes: units.Packets(50)})
	fastEgress := NewPort(NewLink(eng, 10*units.Gbps, 0, fastSink),
		PortConfig{Sched: sched.NewFIFO()})
	s2.AddPort(slowEgress)
	s2.AddPort(fastEgress)
	s2.SetRoute(func(p *pkt.Packet) int {
		if p.Dst == 8 {
			return 0
		}
		return 1
	})

	s1 := NewSwitch(eng, 1)
	toS2 := NewPort(NewLink(eng, 10*units.Gbps, time.Microsecond, s2),
		PortConfig{Sched: sched.NewFIFO()})
	s1.AddPort(toS2)
	s1.SetRoute(func(*pkt.Packet) int { return 0 })

	fc := NewPFC(eng, units.Packets(6), units.Packets(3))
	fc.Guard(s2)
	fc.Upstream(toS2)

	// Interleave packets for the slow and fast destinations.
	for i := 0; i < 100; i++ {
		p := dataPkt(uint64(i), units.MTU)
		if i%2 == 0 {
			p.Dst = 8
		} else {
			p.Dst = 9
		}
		s1.Receive(p)
	}
	// Victim packets to the idle fast sink are stuck behind the pause:
	// after 1ms, far fewer than 50 have arrived even though their own
	// path is idle.
	eng.RunUntil(time.Millisecond)
	if got := len(fastSink.packets); got >= 50 {
		t.Fatalf("no head-of-line blocking observed: %d/50 victim packets through", got)
	}
	eng.Run()
	if len(fastSink.packets) != 50 || len(slowSink.packets) != 50 {
		t.Fatalf("eventual delivery broken: %d/%d", len(fastSink.packets), len(slowSink.packets))
	}
}
