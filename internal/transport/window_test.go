package transport

import (
	"testing"
	"time"

	"pmsb/internal/ecn"
	"pmsb/internal/netsim"
	"pmsb/internal/pkt"
	"pmsb/internal/sim"
	"pmsb/internal/units"
)

// TestSlowStartDoubling: with no marking, the window roughly doubles
// each RTT until it covers the data.
func TestSlowStartDoubling(t *testing.T) {
	n := newTestNet(t, nil, nil, 0)
	f := NewFlow(n.eng, n.a, n.b, 1, 0, 0, Config{InitWindow: 2}, nil)
	f.Sender.Start()

	// Base RTT ~22.5us: sample cwnd at RTT boundaries.
	samples := []float64{}
	for i := 1; i <= 4; i++ {
		n.eng.RunUntil(time.Duration(i) * 25 * time.Microsecond)
		samples = append(samples, f.Sender.cwnd)
	}
	// Each sample should be roughly double the previous (within slack:
	// boundaries are inexact).
	for i := 1; i < len(samples); i++ {
		if samples[i] < samples[i-1]*1.5 {
			t.Fatalf("slow start not doubling: %v", samples)
		}
	}
}

// TestCongestionAvoidanceLinear: above ssthresh the window grows about
// one segment per RTT.
func TestCongestionAvoidanceLinear(t *testing.T) {
	n := newTestNet(t, nil, nil, 0)
	f := NewFlow(n.eng, n.a, n.b, 1, 0, 0, Config{InitWindow: 10}, nil)
	s := f.Sender
	s.Start()
	// Pin the window near the BDP (~19 segments) and force congestion
	// avoidance; with cwnd ~ BDP the ACK clock delivers ~cwnd ACKs per
	// RTT, so growth is ~1 segment per RTT.
	n.eng.RunUntil(100 * time.Microsecond)
	s.ssthresh = 1 // pure congestion avoidance from here on
	s.cwnd = 20
	w0 := s.cwnd
	rtt := s.minRTT
	if rtt <= 0 {
		t.Fatal("need an RTT estimate")
	}
	n.eng.RunUntil(100*time.Microsecond + 10*rtt)
	growth := s.cwnd - w0
	// ~1 segment per RTT over 10 RTTs: expect 4..20 allowing queueing
	// to stretch the effective RTT.
	if growth < 4 || growth > 20 {
		t.Fatalf("CA growth over 10 RTTs = %.1f segments, want ~10", growth)
	}
}

// TestAlphaConvergesToMarkFraction: with every packet marked, alpha
// approaches 1; after marking stops it decays geometrically.
func TestAlphaConvergence(t *testing.T) {
	n := newTestNet(t, &ecn.PerPort{K: 0}, nil, 0) // mark everything
	f := NewFlow(n.eng, n.a, n.b, 1, 0, 0, Config{}, nil)
	f.Sender.Start()
	n.eng.RunUntil(10 * time.Millisecond)
	if a := f.Sender.alpha; a < 0.9 {
		t.Fatalf("alpha under full marking = %v, want ~1", a)
	}
}

// TestCutOncePerWindow: a burst of marked ACKs within one window causes
// exactly one multiplicative decrease.
func TestCutOncePerWindow(t *testing.T) {
	eng, host := isolatedHost(t)
	s := NewSender(eng, host, 1, 2, 0, 0, Config{InitWindow: 16}, nil)
	s.Start()
	// Emit the initial window into the void (stop before the 2ms RTO
	// starts an endless retransmission chain).
	eng.RunUntil(time.Millisecond)

	s.alpha = 0.5
	w0 := s.cwnd
	// Deliver three marked cumulative ACKs inside the same window.
	base := int64(0)
	for i := 1; i <= 3; i++ {
		s.handleAck(&pkt.Packet{
			IsAck: true,
			ECE:   true,
			AckNo: base + int64(i*units.MSS),
		})
	}
	// Only the first mark may cut: cwnd never drops below w0*(1-a/2)
	// minus the additive growth credited by the new ACKs.
	floor := w0 * (1 - 0.5/2)
	if s.cwnd < floor {
		t.Fatalf("cwnd = %v fell below one-cut floor %v (multiple cuts in one window)", s.cwnd, floor)
	}
}

// isolatedHost returns a host whose NIC leads into a black hole — for
// driving the sender state machine by hand-crafted ACKs.
func isolatedHost(t *testing.T) (*sim.Engine, *netsim.Host) {
	t.Helper()
	eng := sim.NewEngine()
	h := netsim.NewHost(eng, 1)
	hole := netsim.NewHost(eng, 2) // unclaimed sink
	h.AttachNIC(netsim.NewLink(eng, 10*units.Gbps, time.Microsecond, hole))
	return eng, h
}
