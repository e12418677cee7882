// Package core implements the PMSB paper's contribution:
//
//   - PMSB, the switch-side "per-Port Marking with Selective Blindness"
//     ECN marker (Algorithm 1),
//   - PMSBe, the immediately-deployable end-host heuristic that filters
//     ECN signals by RTT (Algorithm 2),
//   - the steady-state analysis of Section IV-D, including the
//     Theorem IV.1 lower bound on per-queue filter thresholds.
//
// PMSB's intuition: per-port ECN marking keeps both throughput and
// latency good but can mark "victim" packets that sit in un-congested
// queues, making their flows back off and violating the scheduling
// policy. PMSB breaks the fixed causal relationship between port-level
// marking and flow back-off: a packet is marked only if the port buffer
// exceeds the port threshold AND its own queue's buffer exceeds a
// weight-proportional per-queue filter threshold.
package core

import (
	"pmsb/internal/ecn"
	"pmsb/internal/obs"
	"pmsb/internal/pkt"
)

// PMSB is the switch marker of Algorithm 1. A packet headed to (or
// leaving) queue i is marked iff
//
//	port_length  >= port_threshold, and
//	queue_length_i >= (weight_i / weight_sum) x port_threshold.
//
// The first condition is plain per-port marking; the second is the
// selective-blindness filter that protects flows in queues below their
// fair share of the buffer.
type PMSB struct {
	// PortK is the per-port threshold in bytes (Eq. 5: C x RTT x lambda).
	PortK int
	// MarkPoint selects enqueue or dequeue marking (default enqueue;
	// dequeue delivers congestion information earlier, Figure 11).
	MarkPoint ecn.Point
	// ThresholdScale scales the per-queue filter threshold (default 1,
	// the paper's Eq. 6). It exists for the false-positive vs
	// false-negative ablation of Section I: values below 1 make the
	// filter more aggressive (accept more marks, risking fairness),
	// values above 1 more conservative (refuse more marks, risking
	// latency). 0 means 1.
	ThresholdScale float64
	// Obs, when non-nil, receives a blindness event each time the port
	// threshold is exceeded but the per-queue filter refuses the mark —
	// the suppressions that distinguish PMSB from plain per-port marking.
	Obs *obs.Bus
}

var _ ecn.Marker = (*PMSB)(nil)

// Name implements ecn.Marker.
func (m *PMSB) Name() string { return "PMSB" }

// Point implements ecn.Marker.
func (m *PMSB) Point() ecn.Point {
	if m.MarkPoint == 0 {
		return ecn.AtEnqueue
	}
	return m.MarkPoint
}

// ShouldMark implements ecn.Marker with Algorithm 1 of the paper.
func (m *PMSB) ShouldMark(pv ecn.PortView, q int, p *pkt.Packet) bool {
	if pv.PortBytes() < m.PortK {
		return false
	}
	thresh := m.QueueThreshold(pv.Weight(q), pv.WeightSum())
	if float64(pv.QueueBytes(q)) >= thresh {
		return true
	}
	// Port over threshold but queue under its filter: this is the
	// selective-blindness case — per-port marking would have marked here.
	if m.Obs != nil {
		m.Obs.Blind(pv.Now(), q, pv.PortBytes(), pv.QueueBytes(q), thresh)
	}
	return false
}

// QueueThreshold returns the per-queue filter threshold (Eq. 6, times
// ThresholdScale) for a queue of weight w on a port with total weight
// weightSum.
func (m *PMSB) QueueThreshold(w, weightSum float64) float64 {
	scale := m.ThresholdScale
	if scale == 0 {
		scale = 1
	}
	return float64(m.PortK) * w / weightSum * scale
}
