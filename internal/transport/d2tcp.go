package transport

import "math"

// D2TCP support (Vamanan et al., SIGCOMM 2012 — the paper's reference
// [16]). D2TCP is DCTCP with deadline-aware gamma correction: instead of
// cutting the window by alpha/2, a sender cuts by alpha^d / 2 where the
// urgency exponent d compares the time the flow still needs (Tc) with
// the time its deadline leaves (D):
//
//	d = Tc / D, clamped to [0.5, 2].
//
// Near-deadline flows (d > 1) raise alpha^d toward smaller values and
// back off less; far-deadline flows back off more, donating bandwidth.
// With no deadline configured the sender is exactly DCTCP.

// d2tcpGamma returns the deadline-corrected congestion estimate
// alpha^d used in the window cut.
func d2tcpGamma(alpha, d float64) float64 {
	if alpha <= 0 {
		return 0
	}
	if d <= 0 {
		d = 1
	}
	return math.Pow(alpha, d)
}

// clampUrgency bounds the urgency exponent like the D2TCP paper.
func clampUrgency(d float64) float64 {
	switch {
	case d < 0.5:
		return 0.5
	case d > 2:
		return 2
	default:
		return d
	}
}

// urgency computes the D2TCP exponent for this sender: Tc/D with Tc
// estimated from the remaining bytes at the current rate (cwnd per
// sRTT). Long-lived flows and flows without deadlines report 1 (plain
// DCTCP). A missed or imminent deadline saturates at maximum urgency.
func (s *Sender) urgency() float64 {
	if s.cfg.Deadline <= 0 || s.size == 0 {
		return 1
	}
	left := s.cfg.Deadline - (s.eng.Now() - s.startedAt)
	if left <= 0 {
		return 2
	}
	rtt := s.srtt
	if rtt <= 0 {
		return 1
	}
	remaining := float64(s.size - s.sndUna)
	rate := s.cwnd * float64(s.cfg.MSS) / rtt.Seconds() // bytes/sec
	if rate <= 0 {
		return 2
	}
	tc := remaining / rate
	return clampUrgency(tc / left.Seconds())
}

// DeadlineMet reports whether the flow finished within its deadline
// (true when no deadline was set but the flow finished).
func (s *Sender) DeadlineMet() bool {
	if !s.finished {
		return false
	}
	if s.cfg.Deadline <= 0 {
		return true
	}
	return s.fct <= s.cfg.Deadline
}

// Urgency exposes the current D2TCP exponent (1 for plain DCTCP),
// mostly for tests and tracing.
func (s *Sender) Urgency() float64 { return s.urgency() }
