package transport

import (
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

// NewFlow wires a sender at src and a receiver at dst for flow id f,
// sending size bytes (0 = long-lived) in the given service class.
// onComplete, if non-nil, fires at the sender when the flow finishes.
// Call Flow.Sender.Start (or schedule it) to begin. Each endpoint runs
// on its own host's engine, so flows span shard boundaries in sharded
// topologies; eng is only a fallback for hosts without one.
func NewFlow(eng *sim.Engine, src, dst *netsim.Host, f pkt.FlowID, service int,
	size int64, cfg Config, onComplete func(*Sender)) *Flow {
	return &Flow{
		Sender:   NewSender(eng, src, f, dst.NodeID(), service, size, cfg, onComplete),
		Receiver: NewReceiver(dst, f, src.NodeID(), service),
	}
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
