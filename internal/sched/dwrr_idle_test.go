package sched

import (
	"testing"
	"time"

	"pmsb/internal/units"
)

// drainDWRR dequeues until empty, advancing the fake clock by perPkt
// between packets; on return the clock reads the instant the port
// emptied.
func drainDWRR(t *testing.T, s *DWRR, now *time.Duration, perPkt time.Duration) {
	t.Helper()
	for {
		if _, _, ok := s.Dequeue(); !ok || s.TotalPackets() == 0 {
			return
		}
		*now += perPkt
	}
}

// Regression for the stale-round guard: the old closeRound condition
// (`d.now()-d.emptiedAt >= 0`, vacuously true in monotonic virtual
// time) never compared the idle gap against T_idle, so the smoothed
// round time was either reset regardless of gap length or — because
// draining the port always closes the round first — never reset at all
// unless the port happened to call ObserveIdle. The scheduler itself
// must enforce the paper's rule: a gap longer than T_idle (roundIdle)
// invalidates the estimate, a shorter one does not.
func TestDWRRSubTIdleGapKeepsRoundTime(t *testing.T) {
	var now time.Duration
	tIdle := roundIdle
	s := NewDWRR([]float64{1, 1}, units.MTU,
		WithClock(func() time.Duration { return now }))
	for i := 0; i < 10; i++ {
		s.Enqueue(0, mkpkt(units.MTU))
		s.Enqueue(1, mkpkt(units.MTU))
	}
	drainDWRR(t, s, &now, 2*time.Microsecond)
	rt := s.RoundTime()
	if rt == 0 {
		t.Fatal("expected nonzero round time after busy period")
	}

	// Idle for less than tIdle, then traffic returns. MQ-ECN consumes
	// RoundTime for its dynamic thresholds, so a brief pause must not
	// throw the estimate away.
	now += tIdle / 2
	s.Enqueue(0, mkpkt(units.MTU))
	if got := s.RoundTime(); got != rt {
		t.Fatalf("sub-tIdle gap changed RoundTime: %v -> %v", rt, got)
	}
	drainDWRR(t, s, &now, 2*time.Microsecond)
	if s.RoundTime() == 0 {
		t.Fatal("round time lost across a sub-tIdle gap")
	}
}

func TestDWRRLongIdleGapResetsRoundTime(t *testing.T) {
	var now time.Duration
	tIdle := roundIdle
	s := NewDWRR([]float64{1, 1}, units.MTU,
		WithClock(func() time.Duration { return now }))
	for i := 0; i < 10; i++ {
		s.Enqueue(0, mkpkt(units.MTU))
		s.Enqueue(1, mkpkt(units.MTU))
	}
	drainDWRR(t, s, &now, 2*time.Microsecond)
	if s.RoundTime() == 0 {
		t.Fatal("expected nonzero round time after busy period")
	}

	// Idle well past tIdle: the estimate is stale and the enqueue that
	// reopens the port must observe RoundTime 0 — without relying on
	// the port calling ObserveIdle first.
	now += 3 * tIdle
	s.Enqueue(0, mkpkt(units.MTU))
	if got := s.RoundTime(); got != 0 {
		t.Fatalf("RoundTime after %v idle = %v, want 0", 3*tIdle, got)
	}

	// Fresh samples rebuild the estimate from scratch.
	s.Enqueue(1, mkpkt(units.MTU))
	drainDWRR(t, s, &now, 2*time.Microsecond)
	if s.RoundTime() == 0 {
		t.Fatal("round time must rebuild after the reset")
	}
}

// A gap of exactly tIdle is the boundary: the paper resets only when
// the port idles *longer* than tIdle.
func TestDWRRExactTIdleGapKeepsRoundTime(t *testing.T) {
	var now time.Duration
	tIdle := roundIdle
	s := NewDWRR([]float64{1}, units.MTU,
		WithClock(func() time.Duration { return now }))
	s.Enqueue(0, mkpkt(units.MTU))
	now += 2 * time.Microsecond
	drainDWRR(t, s, &now, 2*time.Microsecond)
	rt := s.RoundTime()

	// The port emptied at the final dequeue, at now; land the reopening
	// enqueue exactly tIdle after that instant.
	now += tIdle
	s.Enqueue(0, mkpkt(units.MTU))
	if got := s.RoundTime(); got != rt {
		t.Fatalf("RoundTime after exactly tIdle = %v, want %v", got, rt)
	}
}
