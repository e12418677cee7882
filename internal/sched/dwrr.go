package sched

import (
	"time"

	"pmsb/internal/pkt"
	"pmsb/internal/units"
)

// DWRR is the Deficit Weighted Round Robin scheduler. Each queue i has a
// quantum proportional to its weight; a visit to a queue adds the quantum
// to the queue's deficit counter and the queue may transmit packets while
// the deficit covers them. DWRR is the round-based scheduler MQ-ECN was
// designed for, so it additionally tracks the smoothed round time
// (RoundInfo) that MQ-ECN's dynamic thresholds consume.
type DWRR struct {
	base
	quantum []int // bytes per visit, per queue
	active  []int // round-robin ring of backlogged queue indices
	deficit []int
	inRing  []bool

	// now provides virtual time for round-time sampling; nil disables
	// round timing (RoundTime reports 0).
	now func() time.Duration

	roundTime  time.Duration // smoothed
	roundStart time.Duration
	roundHead  int // queue id that opens the current round, -1 if idle
	emptiedAt  time.Duration
	everBusy   bool
}

var (
	_ Scheduler = (*DWRR)(nil)
	_ RoundInfo = (*DWRR)(nil)
)

// The paper's round-time constants (Eq. 3): the EWMA history weight
// beta (shared with WRR), and T_idle, the idle gap after which the
// smoothed round time resets — one MTU transmission time at 10 Gbps.
const roundBeta = 0.75

var roundIdle = units.Serialization(units.MTU, 10*units.Gbps)

// DWRROption customizes a DWRR scheduler.
type DWRROption func(*DWRR)

// WithClock supplies the virtual clock used to sample round times. MQ-ECN
// needs it; plain DWRR scheduling does not.
func WithClock(now func() time.Duration) DWRROption {
	return func(d *DWRR) { d.now = now }
}

// NewDWRR returns a DWRR scheduler. weights determine each queue's share;
// quantumBase is the quantum in bytes given to a queue of weight 1 per
// round (it should be at least one MTU so every visit can transmit).
func NewDWRR(weights []float64, quantumBase int, opts ...DWRROption) *DWRR {
	if quantumBase < 1 {
		quantumBase = units.MTU
	}
	d := &DWRR{
		base:      newBase(weights),
		quantum:   make([]int, len(weights)),
		deficit:   make([]int, len(weights)),
		inRing:    make([]bool, len(weights)),
		roundHead: -1,
	}
	for i, w := range weights {
		q := int(w * float64(quantumBase))
		if q < 1 {
			q = 1
		}
		d.quantum[i] = q
	}
	for _, opt := range opts {
		opt(d)
	}
	return d
}

// Name implements Scheduler.
func (d *DWRR) Name() string { return "DWRR" }

// Enqueue implements Scheduler.
func (d *DWRR) Enqueue(q int, p *pkt.Packet) {
	d.checkQueue(q)
	d.push(q, p)
	if !d.inRing[q] {
		d.inRing[q] = true
		d.deficit[q] = 0
		d.active = append(d.active, q)
		if d.roundHead == -1 {
			d.openRound(q)
		}
	}
}

// Dequeue implements Scheduler.
func (d *DWRR) Dequeue() (*pkt.Packet, int, bool) {
	for len(d.active) > 0 {
		q := d.active[0]
		head := d.queues[q].peek()
		if head == nil {
			// Defensive: queues never stay in the ring empty.
			d.dropFromRing(q)
			continue
		}
		if d.deficit[q] < head.Size {
			d.deficit[q] += d.quantum[q]
			d.rotate()
			continue
		}
		p := d.pop(q)
		d.deficit[q] -= p.Size
		if d.queues[q].n == 0 {
			d.dropFromRing(q)
		}
		if d.totalPkts == 0 {
			d.markIdle()
		}
		return p, q, true
	}
	return nil, 0, false
}

// RoundTime implements RoundInfo: the EWMA-smoothed duration of one full
// scheduling round. Zero means the port has been idle (MQ-ECN then falls
// back to the full standard threshold).
func (d *DWRR) RoundTime() time.Duration { return d.roundTime }

// QuantumBytes implements RoundInfo.
func (d *DWRR) QuantumBytes(q int) int { return d.quantum[q] }

func (d *DWRR) rotate() {
	q := d.active[0]
	copy(d.active, d.active[1:])
	d.active[len(d.active)-1] = q
	if q == d.roundHead {
		d.closeRound()
	}
}

func (d *DWRR) dropFromRing(q int) {
	for i, v := range d.active {
		if v == q {
			d.active = append(d.active[:i], d.active[i+1:]...)
			break
		}
	}
	d.inRing[q] = false
	d.deficit[q] = 0
	if q == d.roundHead {
		d.closeRound()
	}
}

// openRound starts timing a new round led by queue q. A round that
// opens after the port sat idle for more than roundIdle first discards the
// smoothed round time: the estimate describes a load that is gone, and
// MQ-ECN's dynamic thresholds must fall back to the standard threshold
// until fresh samples arrive. Shorter gaps keep the estimate — the port
// was only briefly quiet and the EWMA history is still representative.
func (d *DWRR) openRound(q int) {
	if d.now != nil {
		t := d.now()
		if d.roundHead == -1 && d.everBusy && t-d.emptiedAt > roundIdle {
			d.roundTime = 0
		}
		d.roundStart = t
	}
	d.roundHead = q
}

// closeRound samples the elapsed round time into the EWMA and elects
// the next round head from the front of the ring. Rounds never span an
// idle period — draining the port closes the current round and the next
// enqueue opens a fresh one — so every sample here reflects busy time;
// staleness across idle gaps is handled by openRound (and, earlier, by
// ObserveIdle when the port reports the gap at enqueue).
func (d *DWRR) closeRound() {
	if d.now != nil {
		sample := d.now() - d.roundStart
		d.roundTime = time.Duration(roundBeta*float64(d.roundTime) + (1-roundBeta)*float64(sample))
	}
	if len(d.active) == 0 {
		d.roundHead = -1
		return
	}
	d.openRound(d.active[0])
}

func (d *DWRR) markIdle() {
	d.everBusy = true
	if d.now != nil {
		d.emptiedAt = d.now()
		// The reset itself is lazy: openRound (on the next enqueue) or
		// ObserveIdle (if the port reports the gap first) compares the
		// gap against roundIdle and zeroes the estimate when it is stale.
	}
}

// ObserveIdle lets the port report the current time on enqueue so the
// scheduler can reset its round estimate after a long idle gap. It is
// optional: ports call it when the scheduler was empty.
func (d *DWRR) ObserveIdle(now time.Duration) {
	if d.everBusy && now-d.emptiedAt > roundIdle {
		d.roundTime = 0
	}
}

// DWRRBlock dispenses DWRR schedulers for a fabric of identical ports
// from a handful of slabs. Per-port construction of a DWRR costs eight
// allocations (struct, weight copy, queues, quantum, deficit, ring
// bookkeeping); a block amortizes that to one slab per field across
// every port, shares the read-only tables (weights, quanta) outright,
// and cuts each port's mutable state (queues, deficits, active ring)
// from contiguous arrays with three-index caps so an out-of-contract
// append could never spill into a neighbour's region. Requests beyond
// the reserved count fall back to NewDWRR.
type DWRRBlock struct {
	slab    []DWRR
	weights []float64
	sum     float64
	quantum []int
	queues  []fifo
	deficit []int
	active  []int
	inRing  []bool

	quantumBase int
	opts        []DWRROption
}

// NewDWRRBlock reserves slabs for n DWRR schedulers with the given
// per-queue weights; quantumBase and opts are as in NewDWRR and apply
// to every dispensed scheduler.
func NewDWRRBlock(n int, weights []float64, quantumBase int, opts ...DWRROption) *DWRRBlock {
	if quantumBase < 1 {
		quantumBase = units.MTU
	}
	nq := len(weights)
	b := &DWRRBlock{
		slab:        make([]DWRR, 0, n),
		weights:     append([]float64(nil), weights...),
		quantum:     make([]int, nq),
		queues:      make([]fifo, n*nq),
		deficit:     make([]int, n*nq),
		active:      make([]int, n*nq),
		inRing:      make([]bool, n*nq),
		quantumBase: quantumBase,
		opts:        opts,
	}
	for _, w := range b.weights {
		b.sum += w
	}
	for i, w := range b.weights {
		q := int(w * float64(quantumBase))
		if q < 1 {
			q = 1
		}
		b.quantum[i] = q
	}
	return b
}

// Next carves the next DWRR scheduler.
func (b *DWRRBlock) Next() *DWRR {
	if len(b.slab) == cap(b.slab) {
		return NewDWRR(b.weights, b.quantumBase, b.opts...)
	}
	b.slab = b.slab[:len(b.slab)+1]
	d := &b.slab[len(b.slab)-1]
	nq := len(b.weights)
	off := (len(b.slab) - 1) * nq
	end := off + nq
	d.base = base{
		queues:    b.queues[off:end:end],
		weights:   b.weights,
		weightSum: b.sum,
	}
	d.quantum = b.quantum
	d.deficit = b.deficit[off:end:end]
	d.inRing = b.inRing[off:end:end]
	d.active = b.active[off:off:end]
	d.roundHead = -1
	for _, opt := range b.opts {
		opt(d)
	}
	return d
}
