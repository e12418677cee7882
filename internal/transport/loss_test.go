package transport

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"pmsb/internal/netsim"
	"pmsb/internal/pkt"
	"pmsb/internal/sched"
	"pmsb/internal/sim"
	"pmsb/internal/units"
)

// lossyNet builds a dumbbell whose bottleneck drops packets according
// to dropFn (failure injection).
func lossyNet(t *testing.T, dropFn func(*pkt.Packet) bool) *testNet {
	t.Helper()
	eng := sim.NewEngine()
	a := netsim.NewHost(eng, 1)
	b := netsim.NewHost(eng, 2)
	sw := netsim.NewSwitch(eng, 100)
	a.AttachNIC(netsim.NewLink(eng, testRate, testDelay, sw))
	b.AttachNIC(netsim.NewLink(eng, testRate, testDelay, sw))
	toA := netsim.NewPort(netsim.NewLink(eng, testRate, testDelay, a),
		netsim.PortConfig{Sched: sched.NewFIFO()})
	toB := netsim.NewPort(netsim.NewLink(eng, testRate, testDelay, b),
		netsim.PortConfig{Sched: sched.NewFIFO(), DropFn: dropFn})
	sw.AddPort(toA)
	sw.AddPort(toB)
	sw.SetRoute(func(p *pkt.Packet) int {
		switch p.Dst {
		case 1:
			return 0
		case 2:
			return 1
		default:
			return -1
		}
	})
	return &testNet{eng: eng, a: a, b: b, sw: sw, toA: toA, toB: toB}
}

func TestRandomLossRecovery(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	n := lossyNet(t, func(p *pkt.Packet) bool {
		return !p.IsAck && r.Float64() < 0.02 // 2% data loss
	})
	completed := false
	f := NewFlow(n.eng, n.a, n.b, 1, 0, 1_000_000, Config{}, func(*Sender) { completed = true })
	f.Sender.Start()
	n.eng.RunUntil(5 * time.Second)

	if !completed {
		t.Fatal("flow did not survive 2% random loss")
	}
	if f.Receiver.Goodput() != 1_000_000 {
		t.Fatalf("goodput = %d", f.Receiver.Goodput())
	}
	if n.toB.DropPackets() == 0 {
		t.Fatal("sanity: injection produced no drops")
	}
}

func TestTargetedFirstPacketLoss(t *testing.T) {
	// Drop the very first data packet: recovery must come from the RTO
	// (no dup ACKs are possible).
	dropped := false
	n := lossyNet(t, func(p *pkt.Packet) bool {
		if !p.IsAck && p.Seq == 0 && !dropped {
			dropped = true
			return true
		}
		return false
	})
	completed := false
	f := NewFlow(n.eng, n.a, n.b, 1, 0, 1000, Config{MinRTO: time.Millisecond},
		func(*Sender) { completed = true })
	f.Sender.Start()
	n.eng.RunUntil(time.Second)

	if !completed {
		t.Fatal("flow did not recover from first-packet loss")
	}
	if f.Sender.Retransmits() == 0 {
		t.Fatal("expected an RTO retransmission")
	}
	// The RTO must have fired: FCT >= MinRTO.
	if f.Sender.FCT() < time.Millisecond {
		t.Fatalf("FCT = %v, expected at least the 1ms RTO", f.Sender.FCT())
	}
}

func TestTailPacketLoss(t *testing.T) {
	// Drop the last segment once: the tail loss is only recoverable by
	// RTO (nothing after it generates dup ACKs).
	size := int64(10 * units.MSS)
	dropped := false
	n := lossyNet(t, func(p *pkt.Packet) bool {
		if !p.IsAck && !dropped && p.Seq == size-int64(units.MSS) {
			dropped = true
			return true
		}
		return false
	})
	completed := false
	f := NewFlow(n.eng, n.a, n.b, 1, 0, size, Config{MinRTO: time.Millisecond},
		func(*Sender) { completed = true })
	f.Sender.Start()
	n.eng.RunUntil(time.Second)
	if !completed {
		t.Fatal("flow did not recover from tail loss")
	}
	if f.Receiver.Goodput() != size {
		t.Fatalf("goodput = %d, want %d", f.Receiver.Goodput(), size)
	}
}

func TestAckLoss(t *testing.T) {
	// Losing ACKs must not break correctness: cumulative ACKs cover the
	// gaps.
	r := rand.New(rand.NewSource(5))
	eng := sim.NewEngine()
	a := netsim.NewHost(eng, 1)
	b := netsim.NewHost(eng, 2)
	sw := netsim.NewSwitch(eng, 100)
	a.AttachNIC(netsim.NewLink(eng, testRate, testDelay, sw))
	b.AttachNIC(netsim.NewLink(eng, testRate, testDelay, sw))
	toA := netsim.NewPort(netsim.NewLink(eng, testRate, testDelay, a),
		netsim.PortConfig{Sched: sched.NewFIFO(), DropFn: func(p *pkt.Packet) bool {
			return p.IsAck && r.Float64() < 0.2 // 20% ACK loss
		}})
	toB := netsim.NewPort(netsim.NewLink(eng, testRate, testDelay, b),
		netsim.PortConfig{Sched: sched.NewFIFO()})
	sw.AddPort(toA)
	sw.AddPort(toB)
	sw.SetRoute(func(p *pkt.Packet) int {
		switch p.Dst {
		case 1:
			return 0
		case 2:
			return 1
		default:
			return -1
		}
	})
	completed := false
	f := NewFlow(eng, a, b, 1, 0, 500_000, Config{}, func(*Sender) { completed = true })
	f.Sender.Start()
	eng.RunUntil(5 * time.Second)
	if !completed {
		t.Fatal("flow did not survive 20% ACK loss")
	}
	if f.Receiver.Goodput() != 500_000 {
		t.Fatalf("goodput = %d", f.Receiver.Goodput())
	}
}

// Property: for any loss rate up to 10% and any flow size up to ~40
// segments, the flow completes and delivers exactly its size.
func TestPropertyLossyCompletion(t *testing.T) {
	if testing.Short() {
		t.Skip("property loss sweep skipped in -short mode")
	}
	f := func(seed int64, sizeRaw uint16, lossRaw uint8) bool {
		size := int64(sizeRaw)%int64(40*units.MSS) + 1
		loss := float64(lossRaw%10) / 100
		r := rand.New(rand.NewSource(seed))
		n := lossyNet(t, func(p *pkt.Packet) bool {
			return !p.IsAck && r.Float64() < loss
		})
		done := false
		fl := NewFlow(n.eng, n.a, n.b, 1, 0, size, Config{MinRTO: time.Millisecond},
			func(*Sender) { done = true })
		fl.Sender.Start()
		n.eng.RunUntil(30 * time.Second)
		return done && fl.Receiver.Goodput() == size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
