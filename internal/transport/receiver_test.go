package transport

import (
	"testing"
	"time"

	"pmsb/internal/netsim"
	"pmsb/internal/pkt"
	"pmsb/internal/sim"
	"pmsb/internal/units"
)

// rxHarness wires a receiver on a host whose ACKs are captured rather
// than routed, so tests can drive it with hand-crafted data packets.
type rxHarness struct {
	eng  *sim.Engine
	r    *Receiver
	acks []*pkt.Packet
}

func newRxHarness(t *testing.T) *rxHarness {
	t.Helper()
	eng := sim.NewEngine()
	dst := netsim.NewHost(eng, 2)
	h := &rxHarness{eng: eng}
	// Capture outgoing ACKs by attaching the NIC to a recording node.
	rec := &ackRecorder{h: h}
	dst.AttachNIC(netsim.NewLink(eng, 10*units.Gbps, 0, rec))
	h.r = NewReceiver(dst, 1, 9, 0)
	return h
}

type ackRecorder struct{ h *rxHarness }

func (a *ackRecorder) NodeID() pkt.NodeID { return 9 }
func (a *ackRecorder) Receive(p *pkt.Packet) {
	a.h.acks = append(a.h.acks, p)
}

// deliver injects a data segment with the given seq/len.
func (h *rxHarness) deliver(seq int64, payload int, ce bool) {
	h.r.handleData(&pkt.Packet{
		Flow:    1,
		Seq:     seq,
		Payload: payload,
		Size:    payload + units.HeaderSize,
		CE:      ce,
		ECT:     true,
		SentAt:  h.eng.Now(),
	})
	// Drain the immediate ACK transmission but not future timers.
	h.eng.RunUntil(h.eng.Now() + time.Microsecond)
}

func (h *rxHarness) lastAck(t *testing.T) *pkt.Packet {
	t.Helper()
	if len(h.acks) == 0 {
		t.Fatal("no ACK emitted")
	}
	return h.acks[len(h.acks)-1]
}

func TestReceiverInOrder(t *testing.T) {
	h := newRxHarness(t)
	h.deliver(0, 1000, false)
	if got := h.lastAck(t).AckNo; got != 1000 {
		t.Fatalf("AckNo = %d, want 1000", got)
	}
	h.deliver(1000, 500, false)
	if got := h.lastAck(t).AckNo; got != 1500 {
		t.Fatalf("AckNo = %d, want 1500", got)
	}
	if h.r.Goodput() != 1500 {
		t.Fatalf("Goodput = %d", h.r.Goodput())
	}
}

func TestReceiverOutOfOrderFill(t *testing.T) {
	h := newRxHarness(t)
	// Segments 2 and 3 arrive before 1: dup ACKs of 0, then a jump.
	h.deliver(1000, 1000, false)
	if got := h.lastAck(t).AckNo; got != 0 {
		t.Fatalf("OOO segment acked %d, want 0 (dup ack)", got)
	}
	h.deliver(2000, 1000, false)
	if got := h.lastAck(t).AckNo; got != 0 {
		t.Fatalf("second OOO segment acked %d, want 0", got)
	}
	// The gap fills: cumulative ACK jumps to 3000.
	h.deliver(0, 1000, false)
	if got := h.lastAck(t).AckNo; got != 3000 {
		t.Fatalf("after fill AckNo = %d, want 3000", got)
	}
	if h.r.Goodput() != 3000 {
		t.Fatalf("Goodput = %d, want 3000", h.r.Goodput())
	}
}

func TestReceiverDuplicateData(t *testing.T) {
	h := newRxHarness(t)
	h.deliver(0, 1000, false)
	h.deliver(0, 1000, false) // spurious retransmission
	if got := h.lastAck(t).AckNo; got != 1000 {
		t.Fatalf("dup data acked %d, want 1000", got)
	}
	if h.r.Goodput() != 1000 {
		t.Fatalf("Goodput double-counted: %d", h.r.Goodput())
	}
}

func TestReceiverEchoesCEPerPacket(t *testing.T) {
	h := newRxHarness(t)
	h.deliver(0, 1000, true)
	if !h.lastAck(t).ECE {
		t.Fatal("CE not echoed as ECE")
	}
	h.deliver(1000, 1000, false)
	if h.lastAck(t).ECE {
		t.Fatal("unmarked packet echoed ECE")
	}
	if h.r.ceCount != 1 {
		t.Fatalf("CEMarked = %d", h.r.ceCount)
	}
}

func TestReceiverEchoesTimestamp(t *testing.T) {
	h := newRxHarness(t)
	h.eng.Schedule(5*time.Microsecond, func() {})
	h.eng.Run()
	h.deliver(0, 1000, false)
	ack := h.lastAck(t)
	if ack.Echo != 5*time.Microsecond {
		t.Fatalf("Echo = %v, want 5us", ack.Echo)
	}
	if !ack.IsAck || ack.Size != units.AckSize {
		t.Fatal("ACK framing wrong")
	}
}

func TestReceiverIgnoresAcks(t *testing.T) {
	h := newRxHarness(t)
	h.r.handleData(&pkt.Packet{IsAck: true, AckNo: 99})
	h.eng.Run()
	if len(h.acks) != 0 {
		t.Fatal("receiver must ignore stray ACKs")
	}
	if h.r.RxPackets() != 0 {
		t.Fatal("stray ACK counted as data")
	}
}
