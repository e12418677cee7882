package transport

import (
	"time"

	"pmsb/internal/netsim"
	"pmsb/internal/pkt"
	"pmsb/internal/units"
)

// Receiver is the DCTCP receiver endpoint. It acknowledges every data
// packet with a cumulative ACK that echoes the packet's CE codepoint in
// ECE (per-packet accurate echo).
type Receiver struct {
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

	nextPktID uint64
}

// NewReceiver creates a receiver for flow f at host dst, acknowledging
// back to src. service classifies the reverse (ACK) path. The receiver
// keeps no timers: it acts only when dst delivers its flow's data.
func NewReceiver(dst *netsim.Host, f pkt.FlowID, src pkt.NodeID, service int) *Receiver {
	r := &Receiver{
		host:    dst,
		flow:    f,
		src:     src,
		service: service,
	}
	dst.Attach(f, r)
	return r
}

// Handle implements netsim.Handler: the receiver consumes its flow's
// data packets directly, with no adapter closure.
func (r *Receiver) Handle(p *pkt.Packet) { r.handleData(p) }

// Goodput returns the in-order payload bytes delivered so far.
func (r *Receiver) Goodput() int64 { return r.rxBytes }

// RxPackets returns the number of data packets received.
func (r *Receiver) RxPackets() int64 { return r.rxPackets }

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
	// Out-of-order or duplicate data gets its (dup) ACK at once like
	// any other packet, so fast retransmit works.
	r.sendAck(r.rcvNxt, p.CE, p.SentAt)
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
