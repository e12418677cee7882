package transport

import (
	"sync"
	"time"

	"pmsb/internal/netsim"
	"pmsb/internal/pkt"
	"pmsb/internal/sim"
	"pmsb/internal/units"
)

// Receiver is the DCTCP receiver endpoint. By default it acknowledges
// every data packet with a cumulative ACK that echoes the packet's CE
// codepoint in ECE (per-packet accurate echo). With delayed ACKs
// enabled it instead runs the DCTCP paper's two-state ECE echo machine:
// ACKs coalesce up to AckEvery packets while the CE state is stable,
// and a state *change* forces an immediate ACK so the echoed marking
// fraction stays exact.
type Receiver struct {
	eng     *sim.Engine
	host    *netsim.Host
	flow    pkt.FlowID
	src     pkt.NodeID
	service int

	rcvNxt int64
	// ooo holds out-of-order segments, sorted by sequence number, until
	// the gap before them fills. The backing array is reused for the
	// flow's lifetime, so steady-state reassembly never allocates — and
	// in-order flows never allocate it at all.
	ooo []oooSeg

	rxBytes   int64 // goodput: in-order payload bytes delivered
	rxPackets int64
	ceCount   int64

	// Delayed-ACK state (DCTCP paper Section 3.2).
	ackEvery int           // coalesce factor m (<=1: per-packet ACKs)
	ackDelay time.Duration // flush timer for a held ACK (default 500us)
	ceState  bool          // CE value of the run being coalesced
	pending  int           // data packets since the last ACK
	lastEcho time.Duration
	flushT   sim.Timer
	// flushAt is when the currently held ACK must escape. The timer is
	// lazy: an ACK that empties the hold leaves the armed event in
	// place (its handler no-ops on pending == 0 or re-arms for a later
	// hold), so coalescing never cancels or reschedules events.
	flushAt time.Duration

	nextPktID uint64
}

// ReceiverOption customizes a Receiver.
type ReceiverOption func(*Receiver)

// WithDelayedAcks turns on DCTCP's delayed-ACK echo state machine,
// acknowledging every m-th packet while the CE state is stable. A held
// ACK is flushed after 500us so a flow's tail is never stranded.
func WithDelayedAcks(m int) ReceiverOption {
	return func(r *Receiver) {
		r.ackEvery = m
		r.ackDelay = 500 * time.Microsecond
	}
}

// receiverPool recycles Receiver records across flows; see senderPool
// for the reuse-safety argument.
var receiverPool = sync.Pool{New: func() any { return new(Receiver) }}

// NewReceiver creates a receiver for flow f at host dst, acknowledging
// back to src. service classifies the reverse (ACK) path. Like the
// sender, the receiver binds to dst's own engine (== eng in
// single-engine topologies, the host's shard engine in sharded ones).
func NewReceiver(eng *sim.Engine, dst *netsim.Host, f pkt.FlowID, src pkt.NodeID,
	service int, opts ...ReceiverOption) *Receiver {
	if he := dst.Engine(); he != nil {
		eng = he
	}
	r := receiverPool.Get().(*Receiver)
	ooo := r.ooo[:0]
	*r = Receiver{
		eng:     eng,
		host:    dst,
		flow:    f,
		src:     src,
		service: service,
		ooo:     ooo,
	}
	for _, opt := range opts {
		opt(r)
	}
	dst.Attach(f, r)
	return r
}

// Handle implements netsim.Handler: the receiver consumes its flow's
// data packets directly, with no adapter closure.
func (r *Receiver) Handle(p *pkt.Packet) { r.handleData(p) }

// release detaches the receiver, disarms its flush timer and returns
// the record to the pool. See Flow.Release.
func (r *Receiver) release() {
	r.flushT.Cancel()
	r.host.Detach(r.flow)
	receiverPool.Put(r)
}

// Goodput returns the in-order payload bytes delivered so far.
func (r *Receiver) Goodput() int64 { return r.rxBytes }

// RxPackets returns the number of data packets received.
func (r *Receiver) RxPackets() int64 { return r.rxPackets }

// CEMarked returns the number of received data packets carrying CE.
func (r *Receiver) CEMarked() int64 { return r.ceCount }

// Close detaches the receiver from its host.
func (r *Receiver) Close() { r.host.Detach(r.flow) }

// handleData consumes a data packet: everything the receiver needs
// (sequence, payload length, CE, echo timestamp) is copied out, so the
// packet returns to the pool when handling completes.
func (r *Receiver) handleData(p *pkt.Packet) {
	defer pkt.Release(p)
	if p.IsAck {
		return
	}
	r.rxPackets++
	if p.CE {
		r.ceCount++
	}

	payload := int64(p.Payload)
	inOrder := p.Seq == r.rcvNxt
	prevRcvNxt := r.rcvNxt
	switch {
	case p.Seq == r.rcvNxt:
		r.rcvNxt += payload
		r.rxBytes += payload
		r.oooFill()
	case p.Seq > r.rcvNxt:
		r.oooStore(p.Seq, payload)
	default:
		// Duplicate of already-delivered data; ACK restates rcvNxt.
	}

	if r.ackEvery <= 1 || !inOrder {
		// Per-packet echo; out-of-order or duplicate data always
		// triggers an immediate (dup) ACK so fast retransmit works.
		r.sendAck(r.rcvNxt, p.CE, p.SentAt)
		r.resetPending()
		r.ceState = p.CE
		return
	}

	// DCTCP delayed-ACK echo machine: a CE-state change flushes an ACK
	// covering exactly the *previous* run (up to its boundary), keeping
	// the echoed marking fraction byte-accurate; otherwise coalesce m
	// packets.
	if r.pending > 0 && p.CE != r.ceState {
		r.sendAck(prevRcvNxt, r.ceState, r.lastEcho)
		r.resetPending()
	}
	r.ceState = p.CE
	r.lastEcho = p.SentAt
	r.pending++
	if r.pending == 1 {
		r.flushAt = r.eng.Now() + r.ackDelay
	}
	if r.pending >= r.ackEvery {
		r.sendAck(r.rcvNxt, r.ceState, r.lastEcho)
		r.resetPending()
		return
	}
	// Make sure a flush event is armed so a held ACK (e.g. a flow's
	// final odd segment) escapes without waiting for the sender's RTO.
	// A leftover event from an earlier hold fires first and re-arms for
	// the remainder.
	if !r.flushT.Active() {
		r.flushT = r.eng.ScheduleCall(r.ackDelay, receiverFlush, r)
	}
}

// receiverFlush is the delayed-ACK flush trampoline (the receiver rides
// in the event arg so arming the timer never allocates). The timer is
// lazy: a fire with nothing held dies quietly, a fire before the
// current hold's deadline re-arms for the remainder.
func receiverFlush(arg any) {
	r := arg.(*Receiver)
	if r.pending == 0 {
		return
	}
	if now := r.eng.Now(); now < r.flushAt {
		r.flushT = r.eng.ScheduleCall(r.flushAt-now, receiverFlush, r)
		return
	}
	r.sendAck(r.rcvNxt, r.ceState, r.lastEcho)
	r.pending = 0
}

// resetPending clears the coalescing state. Any armed flush event is
// left to fire and find nothing held.
func (r *Receiver) resetPending() {
	r.pending = 0
}

// oooSeg is one buffered out-of-order segment: payload bytes
// [seq, seq+len).
type oooSeg struct {
	seq, len int64
}

// oooStore buffers an out-of-order segment in sequence order. A
// duplicate (same starting sequence — go-back-N retransmissions slice
// segments identically) overwrites in place.
func (r *Receiver) oooStore(seq, length int64) {
	lo, hi := 0, len(r.ooo)
	for lo < hi {
		mid := (lo + hi) / 2
		if r.ooo[mid].seq < seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(r.ooo) && r.ooo[lo].seq == seq {
		r.ooo[lo].len = length
		return
	}
	r.ooo = append(r.ooo, oooSeg{})
	copy(r.ooo[lo+1:], r.ooo[lo:])
	r.ooo[lo] = oooSeg{seq: seq, len: length}
}

// oooFill consumes buffered segments made contiguous by an advance of
// rcvNxt, in one pass. Segments the cumulative advance overtook
// (already-delivered duplicates) are discarded.
func (r *Receiver) oooFill() {
	k := 0
	for k < len(r.ooo) && r.ooo[k].seq <= r.rcvNxt {
		if s := r.ooo[k]; s.seq == r.rcvNxt {
			r.rcvNxt += s.len
			r.rxBytes += s.len
		}
		k++
	}
	if k > 0 {
		r.ooo = r.ooo[:copy(r.ooo, r.ooo[k:])]
	}
}

// sendAck emits a cumulative ACK up to ackNo with the given ECE echo.
func (r *Receiver) sendAck(ackNo int64, ece bool, echo time.Duration) {
	r.nextPktID++
	p := pkt.Get()
	p.ID = r.nextPktID
	p.Flow = r.flow
	p.Src = r.host.NodeID()
	p.Dst = r.src
	p.Size = units.AckSize
	p.IsAck = true
	p.AckNo = ackNo
	p.ECE = ece
	p.Service = r.service
	p.Echo = echo
	r.host.Send(p)
}
