package sched

import (
	"math"
	"time"

	"pmsb/internal/pkt"
	"pmsb/internal/units"
)

// WRR is a packet-based Weighted Round Robin scheduler: in each round a
// backlogged queue may send up to weight_i packets. It approximates
// weighted fair sharing when packets have similar sizes (DWRR fixes the
// variable-size bias; both are evaluated by the paper as "round-based"
// schedulers). Like DWRR it can track round times for MQ-ECN when given
// a clock.
type WRR struct {
	base
	credits []int // packets allowed per visit
	left    []int // remaining packets in the current visit
	active  []int
	inRing  []bool

	now        func() time.Duration
	roundTime  time.Duration
	roundStart time.Duration
	roundHead  int
}

var (
	_ Scheduler = (*WRR)(nil)
	_ RoundInfo = (*WRR)(nil)
)

// WRROption customizes a WRR scheduler.
type WRROption func(*WRR)

// WithWRRClock supplies the virtual clock for round-time sampling.
func WithWRRClock(now func() time.Duration) WRROption {
	return func(w *WRR) { w.now = now }
}

// NewWRR returns a WRR scheduler. Weights are normalized so the smallest
// positive weight sends one packet per round.
func NewWRR(weights []float64, opts ...WRROption) *WRR {
	w := &WRR{
		base:      newBase(weights),
		credits:   make([]int, len(weights)),
		left:      make([]int, len(weights)),
		inRing:    make([]bool, len(weights)),
		roundHead: -1,
	}
	min := math.Inf(1)
	for _, v := range weights {
		if v > 0 && v < min {
			min = v
		}
	}
	if math.IsInf(min, 1) {
		min = 1
	}
	for i, v := range weights {
		c := int(math.Round(v / min))
		if c < 1 {
			c = 1
		}
		w.credits[i] = c
	}
	for _, opt := range opts {
		opt(w)
	}
	return w
}

// RoundTime implements RoundInfo.
func (w *WRR) RoundTime() time.Duration { return w.roundTime }

// QuantumBytes implements RoundInfo: WRR's per-round quantum is its
// packet credit in MTU-sized packets.
func (w *WRR) QuantumBytes(q int) int { return w.credits[q] * units.MTU }

// Name implements Scheduler.
func (w *WRR) Name() string { return "WRR" }

// Enqueue implements Scheduler.
func (w *WRR) Enqueue(q int, p *pkt.Packet) {
	w.checkQueue(q)
	w.push(q, p)
	if !w.inRing[q] {
		w.inRing[q] = true
		w.left[q] = w.credits[q]
		w.active = append(w.active, q)
		if w.roundHead == -1 {
			w.openRound(q)
		}
	}
}

// Dequeue implements Scheduler.
func (w *WRR) Dequeue() (*pkt.Packet, int, bool) {
	for len(w.active) > 0 {
		q := w.active[0]
		if w.queues[q].n == 0 {
			w.removeHead(q)
			continue
		}
		if w.left[q] == 0 {
			w.left[q] = w.credits[q]
			w.rotateHead()
			continue
		}
		p := w.pop(q)
		w.left[q]--
		if w.queues[q].n == 0 {
			w.removeHead(q)
		}
		return p, q, true
	}
	return nil, 0, false
}

func (w *WRR) rotateHead() {
	q := w.active[0]
	copy(w.active, w.active[1:])
	w.active[len(w.active)-1] = q
	if q == w.roundHead {
		w.closeRound()
	}
}

func (w *WRR) removeHead(q int) {
	w.active = w.active[1:]
	w.inRing[q] = false
	w.left[q] = 0
	if q == w.roundHead {
		w.closeRound()
	}
}

func (w *WRR) openRound(q int) {
	w.roundHead = q
	if w.now != nil {
		w.roundStart = w.now()
	}
}

func (w *WRR) closeRound() {
	if w.now != nil {
		sample := w.now() - w.roundStart
		w.roundTime = time.Duration(roundBeta*float64(w.roundTime) + (1-roundBeta)*float64(sample))
	}
	if len(w.active) == 0 {
		w.roundHead = -1
		return
	}
	w.openRound(w.active[0])
}
