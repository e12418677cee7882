package core

import (
	"math"
	"time"

	"pmsb/internal/units"
)

// Analysis captures the steady-state model of Section IV-D: q queues on
// a bottleneck port of capacity C, queue i holding n_i synchronized
// long-lived DCTCP flows with identical RTT and weight w_i.
//
// All buffer quantities are in bytes; the paper's packet-denominated
// formulas are recovered by dividing by the MTU.
type Analysis struct {
	// C is the bottleneck link capacity.
	C units.Rate
	// RTT is the common round-trip time.
	RTT time.Duration
	// Weights are the queue weights w_i.
	Weights []float64
}

// weightShare returns gamma_i = w_i / sum_j w_j.
func (a *Analysis) weightShare(i int) float64 {
	var sum float64
	for _, w := range a.Weights {
		sum += w
	}
	if sum == 0 {
		return 0
	}
	return a.Weights[i] / sum
}

// bdp returns C x RTT in bytes.
func (a *Analysis) bdp() float64 {
	return float64(units.BDP(a.C, a.RTT))
}

// QueueLength evaluates Eq. 7: Q_i(t) = n_i W(t) - gamma_i C RTT, the
// instantaneous backlog of queue i when each of its n_i flows has window
// W (bytes). Negative values mean the queue is empty (link underflow).
func (a *Analysis) QueueLength(i int, n int, window float64) float64 {
	return float64(n)*window - a.weightShare(i)*a.bdp()
}

// QueueMax evaluates Eq. 8: the maximum backlog of queue i is
// Q_i^max = k_i + n_i (in packets; here n_i packets = n_i x MTU bytes),
// reached one RTT after the threshold crossing when every flow has grown
// its window by one segment.
func (a *Analysis) QueueMax(i int, n int, ki float64) float64 {
	return ki + float64(n)*units.MTU
}

// Amplitude evaluates Eq. 9: the oscillation amplitude of queue i,
// A_i = 1/2 sqrt(2 n_i (gamma_i C RTT + k_i)) in packet units; this
// implementation scales to bytes (multiplying the packet-unit result by
// MTU requires the inputs in packets, so we convert internally).
func (a *Analysis) Amplitude(i int, n int, ki float64) float64 {
	gammaBDPpkts := a.weightShare(i) * a.bdp() / units.MTU
	kiPkts := ki / units.MTU
	ampPkts := 0.5 * math.Sqrt(2*float64(n)*(gammaBDPpkts+kiPkts))
	return ampPkts * units.MTU
}

// QueueMin returns Q_i^min = Q_i^max - A_i, the bottom of queue i's
// sawtooth. Throughput is lost whenever it is negative (queue underflow).
func (a *Analysis) QueueMin(i int, n int, ki float64) float64 {
	return a.QueueMax(i, n, ki) - a.Amplitude(i, n, ki)
}

// WorstCaseFlows evaluates Eq. 11: the number of flows minimizing
// Q_i^min, n_i = (gamma_i C RTT + k_i) / 8 in packet units.
func (a *Analysis) WorstCaseFlows(i int, ki float64) float64 {
	return (a.weightShare(i)*a.bdp()/units.MTU + ki/units.MTU) / 8
}

// QueueMinLowerBound evaluates Eq. 10: the minimum over n_i of Q_i^min,
// Q_i^- = 7/8 k_i - gamma_i C RTT / 8 (bytes).
func (a *Analysis) QueueMinLowerBound(i int, ki float64) float64 {
	return 7.0/8.0*ki - a.weightShare(i)*a.bdp()/8.0
}

// MinThreshold evaluates Theorem IV.1: the smallest per-queue threshold
// k_i (bytes) that avoids throughput loss for any flow count,
//
//	k_i > gamma_i x C x RTT / 7.
func (a *Analysis) MinThreshold(i int) float64 {
	return a.weightShare(i) * a.bdp() / 7.0
}

// MinPortThreshold sums the per-queue Theorem IV.1 bounds, giving the
// smallest safe port threshold (the paper: "we can obtain the port's
// threshold by summing up the thresholds of all queues").
func (a *Analysis) MinPortThreshold() float64 {
	var sum float64
	for i := range a.Weights {
		sum += a.MinThreshold(i)
	}
	return sum
}
