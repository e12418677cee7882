package obs

import (
	"time"

	"pmsb/internal/pkt"
)

// PortProbe binds a switch (or NIC) output port to the bus: its
// topology identity and its pre-registered counter block. The port
// holds one pointer; a nil probe is the disabled layer and every method
// returns after a nil check, so un-observed ports pay nothing.
//
// Packet-event methods take the occupancy the port already has at hand
// (scheduler byte counts) so the probe never calls back into the port.
type PortProbe struct {
	bus *Bus
	id  PortID
	m   *PortMetrics
}

// ObservePort registers a port with the bus and returns its probe.
// numQueues sizes the per-queue counter blocks. Returns nil on a nil
// bus so callers can assign unconditionally. On a trace-only bus
// (NewTraceBus) the probe carries no counter block and packet events
// skip the metrics updates entirely.
func (b *Bus) ObservePort(id PortID, numQueues int) *PortProbe {
	if b == nil {
		return nil
	}
	p := &PortProbe{bus: b, id: id}
	if !b.lean {
		p.m = b.reg.portMetrics(id, numQueues)
	}
	return p
}

// Enqueue records a packet admitted to queue q; portBytes/queueBytes
// are the occupancy after the enqueue.
func (p *PortProbe) Enqueue(t time.Duration, q int, packet *pkt.Packet, portBytes, queueBytes int) {
	if p == nil {
		return
	}
	if ev := p.bus.slot(t, KindEnqueue); ev != nil {
		ev.Node, ev.Port, ev.Queue = p.id.Node, p.id.Port, int32(q)
		ev.Flow, ev.Pkt, ev.Size = packet.Flow, packet.ID, int64(packet.Size)
		ev.PortBytes, ev.QueueBytes = int64(portBytes), int64(queueBytes)
	}
}

// Dequeue records a packet beginning transmission from queue q;
// portBytes/queueBytes are the occupancy after it left the queue.
func (p *PortProbe) Dequeue(t time.Duration, q int, packet *pkt.Packet, portBytes, queueBytes int) {
	if p == nil {
		return
	}
	if m := p.m; m != nil {
		m.TxPackets.Inc()
		m.TxBytes.Add(int64(packet.Size))
		if q >= 0 && q < len(m.QueueTxBytes) {
			m.QueueTxBytes[q].Add(int64(packet.Size))
		}
	}
	if ev := p.bus.slot(t, KindDequeue); ev != nil {
		ev.Node, ev.Port, ev.Queue = p.id.Node, p.id.Port, int32(q)
		ev.Flow, ev.Pkt, ev.Size = packet.Flow, packet.ID, int64(packet.Size)
		ev.PortBytes, ev.QueueBytes = int64(portBytes), int64(queueBytes)
	}
}

// Drop records a packet refused at admission by the given gate.
func (p *PortProbe) Drop(t time.Duration, q int, packet *pkt.Packet, reason DropReason) {
	if p == nil {
		return
	}
	if m := p.m; m != nil {
		m.DropPackets.Inc()
		m.DropBytes.Add(int64(packet.Size))
	}
	if ev := p.bus.slot(t, KindDrop); ev != nil {
		ev.Node, ev.Port, ev.Queue = p.id.Node, p.id.Port, int32(q)
		ev.Flow, ev.Pkt, ev.Size = packet.Flow, packet.ID, int64(packet.Size)
		ev.Reason = reason
	}
}

// Mark records the port's marker CE-marking a packet bound for (or
// leaving) queue q; portBytes/queueBytes are the occupancy the marking
// decision observed.
func (p *PortProbe) Mark(t time.Duration, q int, packet *pkt.Packet, portBytes, queueBytes int) {
	if p == nil {
		return
	}
	if m := p.m; m != nil {
		m.Marks.Inc()
		if q >= 0 && q < len(m.QueueMarks) {
			m.QueueMarks[q].Inc()
		}
	}
	if ev := p.bus.slot(t, KindMark); ev != nil {
		ev.Node, ev.Port, ev.Queue = p.id.Node, p.id.Port, int32(q)
		ev.Flow, ev.Pkt, ev.Size = packet.Flow, packet.ID, int64(packet.Size)
		ev.PortBytes, ev.QueueBytes = int64(portBytes), int64(queueBytes)
	}
}
