package obs

import (
	"time"

	"pmsb/internal/pkt"
)

// PortProbe binds a switch (or NIC) output port to the bus under its
// topology identity. The port holds one pointer; a nil probe is the
// disabled layer and every method returns after a nil check, so
// un-observed ports pay nothing.
//
// Packet-event methods take the occupancy the port already has at hand
// (scheduler byte counts) so the probe never calls back into the port.
type PortProbe struct {
	bus *Bus
	id  PortID
}

// ObservePort registers a port with the bus and returns its probe.
// Returns nil on a nil bus so callers can assign unconditionally. The
// second argument, the port's queue count, is unused: the probe keeps
// no per-queue state (per-queue tallies are reductions of the trace,
// StreamStats.Depths). It stays because benchmark/ calls ObservePort.
func (b *Bus) ObservePort(id PortID, _ int) *PortProbe {
	if b == nil {
		return nil
	}
	return &PortProbe{bus: b, id: id}
}

// Enqueue records a packet admitted to queue q; portBytes/queueBytes
// are the occupancy after the enqueue.
func (p *PortProbe) Enqueue(t time.Duration, q int, packet *pkt.Packet, portBytes, queueBytes int) {
	if p == nil {
		return
	}
	ev := p.bus.slot(t, KindEnqueue)
	ev.Node, ev.Port, ev.Queue = p.id.Node, p.id.Port, int32(q)
	ev.Flow, ev.Pkt, ev.Size = packet.Flow, packet.ID, int64(packet.Size)
	ev.PortBytes, ev.QueueBytes = int64(portBytes), int64(queueBytes)
}

// Dequeue records a packet beginning transmission from queue q;
// portBytes/queueBytes are the occupancy after it left the queue.
func (p *PortProbe) Dequeue(t time.Duration, q int, packet *pkt.Packet, portBytes, queueBytes int) {
	if p == nil {
		return
	}
	ev := p.bus.slot(t, KindDequeue)
	ev.Node, ev.Port, ev.Queue = p.id.Node, p.id.Port, int32(q)
	ev.Flow, ev.Pkt, ev.Size = packet.Flow, packet.ID, int64(packet.Size)
	ev.PortBytes, ev.QueueBytes = int64(portBytes), int64(queueBytes)
}

// Drop records a packet refused at admission by the given gate.
func (p *PortProbe) Drop(t time.Duration, q int, packet *pkt.Packet, reason DropReason) {
	if p == nil {
		return
	}
	ev := p.bus.slot(t, KindDrop)
	ev.Node, ev.Port, ev.Queue = p.id.Node, p.id.Port, int32(q)
	ev.Flow, ev.Pkt, ev.Size = packet.Flow, packet.ID, int64(packet.Size)
	ev.Reason = reason
}

// Mark records the port's marker CE-marking a packet bound for (or
// leaving) queue q; portBytes/queueBytes are the occupancy the marking
// decision observed.
func (p *PortProbe) Mark(t time.Duration, q int, packet *pkt.Packet, portBytes, queueBytes int) {
	if p == nil {
		return
	}
	ev := p.bus.slot(t, KindMark)
	ev.Node, ev.Port, ev.Queue = p.id.Node, p.id.Port, int32(q)
	ev.Flow, ev.Pkt, ev.Size = packet.Flow, packet.ID, int64(packet.Size)
	ev.PortBytes, ev.QueueBytes = int64(portBytes), int64(queueBytes)
}
