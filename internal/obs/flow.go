package obs

import (
	"sort"
	"time"

	"pmsb/internal/pkt"
)

// FlowRecord is the per-flow summary a trace reduction rebuilds from
// transport events: lifecycle, progress, congestion signals and loss
// recovery (StreamOptions.Flows).
type FlowRecord struct {
	// Flow is the transport flow ID.
	Flow pkt.FlowID `json:"flow"`
	// Service is the flow's service class (switch queue selector).
	Service int `json:"service"`
	// Size is the flow size in bytes (0 = long-lived).
	Size int64 `json:"size,omitempty"`
	// Start and Finish are virtual times; Finish is valid once Finished.
	Start  time.Duration `json:"start"`
	Finish time.Duration `json:"finish,omitempty"`
	// FCT is the flow completion time (valid once Finished).
	FCT time.Duration `json:"fct,omitempty"`
	// Finished reports whether the last byte was acked.
	Finished bool `json:"finished"`
	// Bytes is the acknowledged (or delivered) byte count: the largest
	// progress an alpha refresh reported, finalized at finish.
	Bytes int64 `json:"bytes"`
	// MarksSeen counts the switch-side CE marks of the flow's packets.
	// (Whether the sender honoured them is its own counter,
	// transport.Sender.MarksAccepted; signals are not traced per ACK.)
	MarksSeen int64 `json:"marksSeen"`
	// CwndCuts counts multiplicative window reductions; Retransmits and
	// RTOs count loss-recovery actions.
	CwndCuts    int64 `json:"cwndCuts"`
	Retransmits int64 `json:"retransmits"`
	RTOs        int64 `json:"rtos"`
	// LastAlpha is the most recent congestion-estimate refresh.
	LastAlpha float64 `json:"lastAlpha"`
}

// FlowTable holds one FlowRecord per flow ID. A restarted flow ID (a
// later run in a multi-run trace) reuses its record.
type FlowTable map[pkt.FlowID]*FlowRecord

// open returns the record for f, creating it on first sight — a flow
// whose start fell outside the trace window still gets one, with a zero
// Start.
func (t FlowTable) open(f pkt.FlowID) *FlowRecord {
	rec := t[f]
	if rec == nil {
		rec = &FlowRecord{Flow: f}
		t[f] = rec
	}
	return rec
}

// add folds one flow-attributed event into the table. Events of other
// kinds, and events without a flow, are ignored.
func (t FlowTable) add(ev *Event) {
	if ev.Flow == 0 {
		return
	}
	switch ev.Kind {
	case KindFlowStart:
		rec := t.open(ev.Flow)
		rec.Start = ev.T
		rec.Size = ev.Size
		rec.Service = int(ev.Queue)
	case KindFlowFinish:
		rec := t.open(ev.Flow)
		rec.Finished = true
		rec.Finish = ev.T
		rec.FCT = time.Duration(ev.V)
		rec.Bytes = ev.Size
	case KindMark:
		t.open(ev.Flow).MarksSeen++
	case KindCwndCut:
		t.open(ev.Flow).CwndCuts++
	case KindRetransmit:
		t.open(ev.Flow).Retransmits++
	case KindRTO:
		t.open(ev.Flow).RTOs++
	case KindAlpha:
		rec := t.open(ev.Flow)
		rec.LastAlpha = ev.V
		if ev.Size > rec.Bytes {
			rec.Bytes = ev.Size
		}
	}
}

// TopBytes returns up to k records (all of them when k < 0) sorted by
// descending byte count, ties broken by flow ID — a total order, so
// the result does not depend on map iteration.
func (t FlowTable) TopBytes(k int) []*FlowRecord {
	out := make([]*FlowRecord, 0, len(t))
	for _, rec := range t {
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Bytes != out[j].Bytes {
			return out[i].Bytes > out[j].Bytes
		}
		return out[i].Flow < out[j].Flow
	})
	if k >= 0 && k < len(out) {
		out = out[:k]
	}
	return out
}

// FlowProbe binds a transport sender to its flow ID and the bus. A nil
// probe (observability disabled) makes every method a nil check —
// senders hold one pointer and emit unconditionally.
type FlowProbe struct {
	bus  *Bus
	flow pkt.FlowID
}

// OpenFlow starts (or restarts) per-flow telemetry, emitting a
// flow-start event and returning the probe the sender holds. Returns
// nil on a nil bus, so the caller can assign unconditionally.
func (b *Bus) OpenFlow(t time.Duration, f pkt.FlowID, service int, size int64) *FlowProbe {
	if b == nil {
		return nil
	}
	b.record(&Event{T: t, Kind: KindFlowStart, Node: pkt.NoNode, Port: -1,
		Queue: int32(service), Flow: f, Size: size})
	return &FlowProbe{bus: b, flow: f}
}

// CwndCut records a multiplicative window reduction to cwnd segments.
func (p *FlowProbe) CwndCut(t time.Duration, cwnd float64) {
	if p == nil {
		return
	}
	p.bus.record(&Event{T: t, Kind: KindCwndCut, Node: pkt.NoNode, Port: -1,
		Queue: -1, Flow: p.flow, V: cwnd})
}

// Alpha records a congestion-estimate refresh; bytes is the flow's
// cumulative acknowledged progress, carried so unfinished flows still
// report throughput.
func (p *FlowProbe) Alpha(t time.Duration, alpha float64, bytes int64) {
	if p == nil {
		return
	}
	p.bus.record(&Event{T: t, Kind: KindAlpha, Node: pkt.NoNode, Port: -1,
		Queue: -1, Flow: p.flow, Size: bytes, V: alpha})
}

// Retransmit records a retransmission of the segment at seq.
func (p *FlowProbe) Retransmit(t time.Duration, seq int64) {
	if p == nil {
		return
	}
	p.bus.record(&Event{T: t, Kind: KindRetransmit, Node: pkt.NoNode, Port: -1,
		Queue: -1, Flow: p.flow, Pkt: uint64(seq)})
}

// RTO records a retransmission timeout firing.
func (p *FlowProbe) RTO(t time.Duration) {
	if p == nil {
		return
	}
	p.bus.record(&Event{T: t, Kind: KindRTO, Node: pkt.NoNode, Port: -1,
		Queue: -1, Flow: p.flow})
}

// Rate records a rate-based transport's new sending rate in bits/sec.
func (p *FlowProbe) Rate(t time.Duration, rate float64) {
	if p == nil {
		return
	}
	p.bus.record(&Event{T: t, Kind: KindRate, Node: pkt.NoNode, Port: -1,
		Queue: -1, Flow: p.flow, V: rate})
}

// Finish records the flow's completion at t with the given FCT and
// total acknowledged bytes.
func (p *FlowProbe) Finish(t time.Duration, fct time.Duration, bytes int64) {
	if p == nil {
		return
	}
	p.bus.record(&Event{T: t, Kind: KindFlowFinish, Node: pkt.NoNode, Port: -1,
		Queue: -1, Flow: p.flow, Size: bytes, V: float64(fct)})
}
