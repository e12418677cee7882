package transport

import (
	"sync"

	"pmsb/internal/netsim"
	"pmsb/internal/pkt"
	"pmsb/internal/sim"
)

// Flow bundles a DCTCP sender/receiver pair over a topology.
type Flow struct {
	// Sender is the source endpoint.
	Sender *Sender
	// Receiver is the sink endpoint.
	Receiver *Receiver
}

var flowPool = sync.Pool{New: func() any { return new(Flow) }}

// NewFlow wires a sender at src and a receiver at dst for flow id f,
// sending size bytes (0 = long-lived) in the given service class.
// onComplete, if non-nil, fires at the sender when the flow finishes.
// Call Flow.Sender.Start (or schedule it) to begin. Each endpoint runs
// on its own host's engine, so flows span shard boundaries in sharded
// topologies; eng is only a fallback for hosts without one.
func NewFlow(eng *sim.Engine, src, dst *netsim.Host, f pkt.FlowID, service int,
	size int64, cfg Config, onComplete func(*Sender)) *Flow {
	fl := flowPool.Get().(*Flow)
	fl.Sender = NewSender(eng, src, f, dst.NodeID(), service, size, cfg, onComplete)
	fl.Receiver = NewReceiver(dst, f, src.NodeID(), service)
	return fl
}

// Release detaches both endpoints from their hosts, disarms their
// timers and recycles the records. Call it only once the flow is
// finished (or will never be driven again); after Release the Flow and
// its endpoints must not be used. Cancelled timer events still riding
// the engine queues are reaped without firing, so recycling is safe
// even mid-simulation.
func (fl *Flow) Release() {
	fl.Sender.release()
	fl.Receiver.release()
	fl.Sender, fl.Receiver = nil, nil
	flowPool.Put(fl)
}

// FlowIDGen hands out unique flow IDs.
type FlowIDGen struct {
	next pkt.FlowID
}

// Next returns a fresh flow ID.
func (g *FlowIDGen) Next() pkt.FlowID {
	g.next++
	return g.next
}
