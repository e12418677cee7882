package netsim

import (
	"pmsb/internal/pkt"
	"pmsb/internal/sched"
	"pmsb/internal/sim"
)

// Handler consumes packets delivered to a host. Transport endpoints
// (DCTCP senders and receivers) implement it.
type Handler interface {
	Handle(p *pkt.Packet)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(p *pkt.Packet)

// Handle implements Handler.
func (f HandlerFunc) Handle(p *pkt.Packet) { f(p) }

// Host is an end system: an outgoing NIC port plus a per-flow demux of
// incoming packets to transport endpoints. The handler map is allocated
// on first Attach — at fabric scale most hosts are built long before
// (or without ever) carrying flows, and an eager map per host is the
// largest single slice of pure build garbage.
type Host struct {
	eng      *sim.Engine
	nic      *Port
	handlers map[pkt.FlowID]Handler
	rxBytes  int64
	id       pkt.NodeID

	rxPackets        uint32
	unclaimedPackets uint32
}

var _ Node = (*Host)(nil)

// NewHost returns a host with no NIC; call AttachNIC before sending.
func NewHost(eng *sim.Engine, id pkt.NodeID) *Host {
	return &Host{id: id, eng: eng}
}

// AttachNIC connects the host's outgoing link through a FIFO NIC port
// and returns that port (useful for taps).
func (h *Host) AttachNIC(link *Link) *Port {
	h.nic = NewPort(link, PortConfig{Sched: sched.NewFIFO()})
	return h.nic
}

// AttachNICPort installs an already-built port (typically an arena
// slot) as the host's NIC and returns it.
func (h *Host) AttachNICPort(p *Port) *Port {
	h.nic = p
	return p
}

// NodeID implements Node.
func (h *Host) NodeID() pkt.NodeID { return h.id }

// Engine returns the engine driving this host. In a sharded topology
// this is the host's shard engine; transport endpoints and flow-start
// scheduling must use it rather than some global engine.
func (h *Host) Engine() *sim.Engine { return h.eng }

// NIC returns the host's NIC port (nil before AttachNIC).
func (h *Host) NIC() *Port { return h.nic }

// Send transmits a packet out of the host's NIC. Packets sent before a
// NIC is attached are dropped silently (counted as unclaimed and
// released back to the packet pool).
func (h *Host) Send(p *pkt.Packet) {
	if h.nic == nil {
		h.unclaimedPackets++
		pkt.Release(p)
		return
	}
	h.nic.Send(p)
}

// Receive implements Node: packets are dispatched to the handler
// registered for their flow, which takes ownership (transport endpoints
// release consumed packets back to the pool). Packets with no handler
// are terminal here and released.
func (h *Host) Receive(p *pkt.Packet) {
	h.rxPackets++
	h.rxBytes += int64(p.Size)
	if hd, ok := h.handlers[p.Flow]; ok {
		hd.Handle(p)
		return
	}
	h.unclaimedPackets++
	pkt.Release(p)
}

// Attach registers a handler for a flow's packets arriving at this host.
func (h *Host) Attach(flow pkt.FlowID, hd Handler) {
	if h.handlers == nil {
		h.handlers = make(map[pkt.FlowID]Handler)
	}
	h.handlers[flow] = hd
}

// RxBytes returns the total bytes received by the host.
func (h *Host) RxBytes() int64 { return h.rxBytes }

// RxPackets returns the total packets received by the host.
func (h *Host) RxPackets() int64 { return int64(h.rxPackets) }

// UnclaimedPackets counts packets that arrived with no registered
// handler (or sends before a NIC existed) — normally zero.
func (h *Host) UnclaimedPackets() int64 { return int64(h.unclaimedPackets) }
