package netsim

import (
	"time"

	"pmsb/internal/pkt"
	"pmsb/internal/sim"
	"pmsb/internal/units"
)

// Link is a unidirectional point-to-point link. Serialization time is
// charged by the transmitting Port (which owns the link and stays busy
// for size/rate); the link itself adds the propagation delay. A
// bidirectional cable is modeled as two Links.
//
// A link is either local (both ends on one engine; arrivals are
// scheduled directly) or a boundary link (the ends live on different
// shards of a sim.Coordinator; arrivals cross via the shard boundary's
// deterministic merge). The send path is identical either way.
//
// The struct is deliberately closure-free and 48 bytes: at fat-tree
// k=32 scale the fabric holds ~49k links, and each lives embedded in
// its owning Port's slab slot (see Arena). Delivery rides the packet
// itself — Deliver stamps the link into the packet's hop field and
// schedules the shared linkArrive trampoline, so propagating a packet
// allocates nothing and links need no per-link callback.
type Link struct {
	// eng is the engine arrivals (and the owning port's timers) are
	// scheduled on. For a boundary link this is the *sending* shard's
	// engine: the receiving side is reached through boundary instead.
	eng      *sim.Engine
	boundary *sim.Boundary
	rate     units.Rate
	delay    time.Duration
	to       Node
}

// LocalLink returns a link value delivering packets to node "to" with
// the given capacity and one-way propagation delay. Use NewLink when a
// heap pointer is wanted; builders that embed links in arena slots use
// the value form directly.
func LocalLink(eng *sim.Engine, rate units.Rate, delay time.Duration, to Node) Link {
	return Link{eng: eng, rate: rate, delay: delay, to: to}
}

// BoundaryLink returns a cross-shard link value: deliveries execute on
// the boundary's destination shard, one boundary delay after the send.
// The propagation delay is the boundary's (they are registered together
// so the coordinator's channel clock for the shard pair covers this
// link).
func BoundaryLink(b *sim.Boundary, rate units.Rate, to Node) Link {
	return Link{eng: b.SourceEngine(), boundary: b, rate: rate, delay: b.Delay(), to: to}
}

// NewLink returns a heap-allocated local link (see LocalLink).
func NewLink(eng *sim.Engine, rate units.Rate, delay time.Duration, to Node) *Link {
	l := LocalLink(eng, rate, delay, to)
	return &l
}

// Delay returns the one-way propagation delay.
func (l *Link) Delay() time.Duration { return l.delay }

// linkArrive completes a propagation: the packet carries its link in
// the hop field, so one package-level trampoline serves every link.
func linkArrive(arg any) {
	p := arg.(*pkt.Packet)
	p.TakeHop().(*Link).to.Receive(p)
}

// Deliver propagates p to the far end. The caller must already have
// charged serialization time (ports do this while holding the
// transmitter busy).
func (l *Link) Deliver(p *pkt.Packet) {
	p.SetHop(l)
	if l.boundary != nil {
		l.boundary.Send(linkArrive, p)
		return
	}
	l.eng.ScheduleCall(l.delay, linkArrive, p)
}
