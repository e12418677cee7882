package core

import (
	"time"
)

// PMSBe is the end-host heuristic of Algorithm 2 ("PMSB(e)"). It runs at
// the sender, on top of plain per-port ECN marking, and decides whether
// to *accept* an incoming ECN congestion signal: if the flow's current
// RTT is below the RTT threshold, its queue cannot be congested, so the
// signal is a per-port false positive and is ignored.
//
// The zero value ignores nothing (threshold 0), i.e. behaves exactly
// like standard DCTCP.
type PMSBe struct {
	// RTTThreshold is the boundary below which marks are ignored (e.g.
	// 85.2us in the paper's large-scale setup).
	RTTThreshold time.Duration
}

// Accept reports whether the sender should honour a congestion signal.
// It is Algorithm 2 restated from the sender's perspective: the paper's
// ignore_mark output is the negation of Accept.
//
//   - marked == false: there is no signal, nothing to accept.
//   - curRTT < RTTThreshold: the flow's own path is uncongested; the
//     mark is a victim artifact of per-port marking — ignore it.
//   - otherwise: honour the mark (back off).
func (f *PMSBe) Accept(curRTT time.Duration, marked bool) bool {
	if !marked {
		return false
	}
	if curRTT < f.RTTThreshold {
		return false
	}
	return true
}

// IgnoreMark is the literal Algorithm 2 of the paper: it returns the
// ignore_mark flag given the inputs of Table II.
func (f *PMSBe) IgnoreMark(curRTT time.Duration, isMark bool) bool {
	return !f.Accept(curRTT, isMark)
}
