package transport

import (
	"testing"
	"time"

	"pmsb/internal/core"
	"pmsb/internal/ecn"
	"pmsb/internal/netsim"
	"pmsb/internal/pkt"
	"pmsb/internal/sched"
	"pmsb/internal/sim"
	"pmsb/internal/units"
)

// testNet is a two-host dumbbell: a <-> sw <-> b with configurable
// bottleneck marker on the sw->b port.
type testNet struct {
	eng      *sim.Engine
	a, b     *netsim.Host
	sw       *netsim.Switch
	toB, toA *netsim.Port
}

const (
	testRate  = 10 * units.Gbps
	testDelay = 5 * time.Microsecond
)

// newTestNet builds the dumbbell. marker / scheduler / buffer apply to
// the bottleneck port (sw -> b), which runs at testRate: with access
// links at the same rate a single flow cannot congest it, so tests that
// need queueing use newBottleneckNet with a slower sw->b link.
func newTestNet(t *testing.T, marker ecn.Marker, s sched.Scheduler, bufBytes int) *testNet {
	return newBottleneckNet(t, marker, s, bufBytes, testRate)
}

// newBottleneckNet is newTestNet with an explicit sw->b bottleneck rate.
func newBottleneckNet(t *testing.T, marker ecn.Marker, s sched.Scheduler, bufBytes int, bottleneck units.Rate) *testNet {
	t.Helper()
	eng := sim.NewEngine()
	a := netsim.NewHost(eng, 1)
	b := netsim.NewHost(eng, 2)
	sw := netsim.NewSwitch(eng, 100)
	a.AttachNIC(netsim.NewLink(eng, testRate, testDelay, sw))
	b.AttachNIC(netsim.NewLink(eng, testRate, testDelay, sw))
	if s == nil {
		s = sched.NewFIFO()
	}
	toA := netsim.NewPort(netsim.NewLink(eng, testRate, testDelay, a),
		netsim.PortConfig{Sched: sched.NewFIFO()})
	toB := netsim.NewPort(netsim.NewLink(eng, bottleneck, testDelay, b),
		netsim.PortConfig{Sched: s, Marker: marker, BufferBytes: bufBytes})
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

func TestShortFlowCompletes(t *testing.T) {
	n := newTestNet(t, nil, nil, 0)
	var done *Sender
	f := NewFlow(n.eng, n.a, n.b, 1, 0, 15000, Config{}, func(s *Sender) { done = s })
	f.Sender.Start()
	n.eng.RunUntil(100 * time.Millisecond)

	if done == nil {
		t.Fatal("flow did not complete")
	}
	if f.Receiver.Goodput() != 15000 {
		t.Fatalf("goodput = %d, want 15000", f.Receiver.Goodput())
	}
	// 15000B fits in ~11 segments; two RTTs (~45us) should suffice.
	if done.FCT() > time.Millisecond {
		t.Fatalf("FCT = %v, unexpectedly slow", done.FCT())
	}
	if done.Retransmits() != 0 {
		t.Fatalf("retransmits = %d, want 0 on a clean path", done.Retransmits())
	}
}

func TestFlowSizeNotMultipleOfMSS(t *testing.T) {
	n := newTestNet(t, nil, nil, 0)
	sizes := []int64{1, 100, 1459, 1461, 999_999}
	var flowID pkt.FlowID
	for _, size := range sizes {
		flowID++
		completed := false
		f := NewFlow(n.eng, n.a, n.b, flowID, 0, size, Config{}, func(*Sender) { completed = true })
		f.Sender.Start()
		n.eng.RunUntil(n.eng.Now() + 50*time.Millisecond)
		if !completed {
			t.Fatalf("size %d: did not complete", size)
		}
		if got := f.Receiver.Goodput(); got != size {
			t.Fatalf("size %d: goodput = %d", size, got)
		}
	}
}

func TestLongFlowSaturatesLink(t *testing.T) {
	// Per-queue ECN with standard threshold on a 1G bottleneck: full
	// throughput expected.
	bottleneck := 1 * units.Gbps
	k := ecn.StandardThreshold(bottleneck, 60*time.Microsecond, 1)
	n := newBottleneckNet(t, &ecn.PerQueueStandard{K: k}, nil, units.Packets(200), bottleneck)
	f := NewFlow(n.eng, n.a, n.b, 1, 0, 0, Config{}, nil)
	f.Sender.Start()
	n.eng.RunUntil(20 * time.Millisecond)

	// Ideal: 1Gbps for 20ms = 2.5MB of wire bytes; goodput slightly
	// less due to headers. Accept >= 85%.
	wantMin := int64(float64(units.BDP(bottleneck, 20*time.Millisecond)) * 0.85)
	if got := f.Receiver.Goodput(); got < wantMin {
		t.Fatalf("goodput = %d, want >= %d", got, wantMin)
	}
}

func TestECNKeepsQueueBounded(t *testing.T) {
	kPkts := 16
	n := newBottleneckNet(t, &ecn.PerQueueStandard{K: units.Packets(kPkts)}, nil, 0, 1*units.Gbps)
	maxQ := 0
	n.toB.OnEnqueue(func(*pkt.Packet, int) {
		if b := n.toB.PortBytes(); b > maxQ {
			maxQ = b
		}
	})
	f := NewFlow(n.eng, n.a, n.b, 1, 0, 0, Config{}, nil)
	f.Sender.Start()
	// Skip slow-start overshoot, then track steady state.
	n.eng.RunUntil(10 * time.Millisecond)
	maxQ = 0
	n.eng.RunUntil(30 * time.Millisecond)

	// Steady-state occupancy should hover near K: allow some headroom
	// but far below an unbounded buffer.
	if maxQ > units.Packets(kPkts*4) {
		t.Fatalf("steady-state queue peaked at %d bytes (%d pkts), want near %d pkts",
			maxQ, maxQ/units.MTU, kPkts)
	}
	if f.Sender.alpha <= 0 {
		t.Fatal("alpha should be positive under persistent marking")
	}
	if f.Sender.MarksSeen() == 0 {
		t.Fatal("expected ECN marks on a saturated queue")
	}
}

func TestLossRecovery(t *testing.T) {
	// Tiny 4-packet buffer on a 1G bottleneck fed at 10G, no ECN: slow
	// start will overflow it.
	n := newBottleneckNet(t, nil, nil, units.Packets(4), 1*units.Gbps)
	completed := false
	f := NewFlow(n.eng, n.a, n.b, 1, 0, 3_000_000, Config{}, func(*Sender) { completed = true })
	f.Sender.Start()
	n.eng.RunUntil(2 * time.Second)

	if n.toB.DropPackets() == 0 {
		t.Fatal("test needs drops to exercise recovery")
	}
	if !completed {
		t.Fatalf("flow did not complete despite %d drops", n.toB.DropPackets())
	}
	if f.Receiver.Goodput() != 3_000_000 {
		t.Fatalf("goodput = %d, want 3000000", f.Receiver.Goodput())
	}
	if f.Sender.Retransmits() == 0 {
		t.Fatal("expected retransmissions")
	}
}

func TestRateLimitedSender(t *testing.T) {
	n := newTestNet(t, nil, nil, 0)
	limit := 2 * units.Gbps
	f := NewFlow(n.eng, n.a, n.b, 1, 0, 0, Config{RateLimit: limit}, nil)
	f.Sender.Start()
	dur := 20 * time.Millisecond
	n.eng.RunUntil(dur)

	got := units.RateOf(f.Receiver.Goodput(), dur)
	if got < limit*85/100 || got > limit {
		t.Fatalf("rate-limited goodput = %v, want ~<= %v", got, limit)
	}
}

func TestRTTMeasurement(t *testing.T) {
	n := newTestNet(t, nil, nil, 0)
	f := NewFlow(n.eng, n.a, n.b, 1, 0, 150_000, Config{}, nil)
	f.Sender.RecordRTT()
	f.Sender.Start()
	n.eng.RunUntil(50 * time.Millisecond)

	base := f.Sender.minRTT
	// 4 propagation hops of 5us plus serialization: >20us, <30us.
	if base < 20*time.Microsecond || base > 30*time.Microsecond {
		t.Fatalf("base RTT = %v, want 20-30us", base)
	}
	if len(f.Sender.RTTSamples()) == 0 {
		t.Fatal("RecordRTT kept no samples")
	}
}

func TestPMSBeFilterIgnoresMarks(t *testing.T) {
	// Force constant marking with a zero-threshold per-port marker; the
	// PMSB(e) filter with a huge RTT threshold ignores all of it.
	n := newTestNet(t, &ecn.PerPort{K: 0}, nil, 0)
	filter := &core.PMSBe{RTTThreshold: time.Hour}
	f := NewFlow(n.eng, n.a, n.b, 1, 0, 0, Config{Filter: filter}, nil)
	f.Sender.Start()
	n.eng.RunUntil(5 * time.Millisecond)

	if f.Sender.MarksSeen() == 0 {
		t.Fatal("expected marks with a zero threshold")
	}
	if f.Sender.MarksAccepted() != 0 {
		t.Fatalf("filter accepted %d marks, want 0", f.Sender.MarksAccepted())
	}
	if f.Sender.alpha != 0 {
		t.Fatalf("alpha = %v, want 0 when every mark is vetoed", f.Sender.alpha)
	}

	// Control: without the filter the same marking collapses the window.
	n2 := newTestNet(t, &ecn.PerPort{K: 0}, nil, 0)
	f2 := NewFlow(n2.eng, n2.a, n2.b, 1, 0, 0, Config{}, nil)
	f2.Sender.Start()
	n2.eng.RunUntil(5 * time.Millisecond)
	if f2.Sender.alpha < 0.5 {
		t.Fatalf("unfiltered alpha = %v, want near 1 under constant marking", f2.Sender.alpha)
	}
	if f2.Receiver.Goodput() >= f.Receiver.Goodput() {
		t.Fatal("constant accepted marking should throttle goodput below the filtered flow")
	}
}

// attachExtraSender adds a third host (node 3) behind the shared switch
// and returns it.
func attachExtraSender(n *testNet) *netsim.Host {
	c := netsim.NewHost(n.eng, 3)
	c.AttachNIC(netsim.NewLink(n.eng, testRate, testDelay, n.sw))
	toC := netsim.NewPort(netsim.NewLink(n.eng, testRate, testDelay, c),
		netsim.PortConfig{Sched: sched.NewFIFO()})
	idx := n.sw.AddPort(toC)
	n.sw.SetRoute(func(p *pkt.Packet) int {
		switch p.Dst {
		case 1:
			return 0
		case 2:
			return 1
		case 3:
			return idx
		default:
			return -1
		}
	})
	return c
}

func TestTwoFlowsShareBottleneck(t *testing.T) {
	k := units.Packets(16)
	n := newTestNet(t, &ecn.PerQueueStandard{K: k}, nil, units.Packets(100))
	// Second sender host sharing the same bottleneck.
	c := attachExtraSender(n)

	f1 := NewFlow(n.eng, n.a, n.b, 1, 0, 0, Config{}, nil)
	f2 := NewFlow(n.eng, c, n.b, 2, 0, 0, Config{}, nil)
	f1.Sender.Start()
	f2.Sender.Start()
	n.eng.RunUntil(50 * time.Millisecond)

	g1, g2 := float64(f1.Receiver.Goodput()), float64(f2.Receiver.Goodput())
	share := g1 / (g1 + g2)
	if share < 0.35 || share > 0.65 {
		t.Fatalf("flow 1 share = %.3f, want roughly fair", share)
	}
	// Combined they should still fill the link.
	wantMin := float64(units.BDP(testRate, 50*time.Millisecond)) * 0.85
	if g1+g2 < wantMin {
		t.Fatalf("aggregate goodput %.0f below %.0f", g1+g2, wantMin)
	}
}

func TestSenderAccessors(t *testing.T) {
	n := newTestNet(t, nil, nil, 0)
	f := NewFlow(n.eng, n.a, n.b, 42, 3, 1000, Config{}, nil)
	s := f.Sender
	if s.flow != 42 || s.Service() != 3 || s.Size() != 1000 {
		t.Fatal("accessor mismatch")
	}
	if s.Finished() {
		t.Fatal("not started yet")
	}
	s.Start()
	s.Start() // idempotent
	n.eng.RunUntil(10 * time.Millisecond)
	if !s.Finished() || s.FCT() <= 0 {
		t.Fatal("flow should have finished with positive FCT")
	}
	if s.AckedBytes() != 1000 {
		t.Fatalf("AckedBytes = %d", s.AckedBytes())
	}
}

func TestFlowIDGen(t *testing.T) {
	var g FlowIDGen
	a, b := g.Next(), g.Next()
	if a == b || a == 0 {
		t.Fatal("FlowIDGen must return distinct nonzero ids")
	}
}
