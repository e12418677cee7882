// Package obs is the simulator-wide observability layer: a typed trace
// bus of compact event records and the streamed reductions that read a
// stored trace back. Every layer of the simulator — switch ports, PFC
// controllers, ECN markers, transport senders — emits into one Bus, and
// experiments, CLIs (`pmsbsim -tracefile`, `cmd/pmsbstat`) and tests
// read the trace back instead of hand-rolling accumulators and port
// taps. The trace is the one account of what the simulated network
// did: every per-queue tally pmsbstat prints is a reduction of it.
//
// The contract that keeps the layer usable on the hot path: when
// observability is disabled (a nil *Bus, the default everywhere), every
// emit point is a nil pointer check and nothing else — zero allocations
// and effectively zero time. When enabled, emitting is still
// allocation-free at steady state: events are fixed-size value records
// appended to a preallocated ring buffer (no interface boxing of ints),
// and serialization happens only when the ring spills or is exported.
// internal/netsim/alloc_test.go proves both properties with
// AllocsPerRun guards.
//
// Probes bind an emitter to its identity once, off the hot path: a
// switch port holds a *PortProbe (its PortID), a transport sender holds
// a *FlowProbe (its flow ID). Emit calls then carry only per-event
// state.
package obs

import (
	"fmt"
	"time"

	"pmsb/internal/pkt"
)

// Kind identifies the type of a trace event.
type Kind uint8

const (
	// KindEnqueue: a packet was admitted to a port queue. PortBytes and
	// QueueBytes carry the occupancy after the enqueue.
	KindEnqueue Kind = iota + 1
	// KindDequeue: a packet began transmission. PortBytes and QueueBytes
	// carry the occupancy after the packet left the queue.
	KindDequeue
	// KindDrop: a packet was refused at admission. Reason says which
	// admission gate refused it.
	KindDrop
	// KindMark: the port's marker CE-marked a packet. PortBytes and
	// QueueBytes carry the occupancy the marking decision observed.
	KindMark
	// KindBlind: PMSB's selective-blindness filter suppressed a would-be
	// per-port mark (port over threshold, queue under its filter
	// threshold). V carries the per-queue filter threshold in bytes.
	KindBlind
	// KindPFCPause / KindPFCResume: a PFC controller crossed Xoff / Xon.
	// PortBytes carries the guarded buffered bytes.
	KindPFCPause
	KindPFCResume
	// KindFlowStart: a transport sender started. Size is the flow size
	// in bytes (0 for long-lived flows).
	KindFlowStart
	// KindFlowFinish: the last byte was acked. V carries the FCT in
	// nanoseconds.
	KindFlowFinish
	// KindCwndCut: a DCTCP sender cut its window. V carries the
	// new cwnd in segments.
	KindCwndCut
	// KindRetransmit: a segment was retransmitted. Pkt carries the
	// retransmitted sequence number.
	KindRetransmit
	// KindRTO: a retransmission timeout fired.
	KindRTO
	// KindAlpha: a congestion estimator refreshed alpha. V carries the
	// new alpha.
	KindAlpha
	// KindRate: a rate-based transport (DCQCN) changed its rate.
	// V carries the new rate in bits/sec.
	KindRate

	numKinds
)

var kindNames = [numKinds]string{
	KindEnqueue:    "enqueue",
	KindDequeue:    "dequeue",
	KindDrop:       "drop",
	KindMark:       "mark",
	KindBlind:      "blind",
	KindPFCPause:   "pfc-pause",
	KindPFCResume:  "pfc-resume",
	KindFlowStart:  "flow-start",
	KindFlowFinish: "flow-finish",
	KindCwndCut:    "cwnd-cut",
	KindRetransmit: "retx",
	KindRTO:        "rto",
	KindAlpha:      "alpha",
	KindRate:       "rate",
}

// Kinds returns every defined event kind in declaration order, for
// deterministic kind-indexed reporting.
func Kinds() []Kind {
	out := make([]Kind, 0, numKinds-1)
	for k := Kind(1); k < numKinds; k++ {
		out = append(out, k)
	}
	return out
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// MarshalJSON renders the kind as its name, keeping JSONL exports
// readable and stable across reorderings of the enum.
func (k Kind) MarshalJSON() ([]byte, error) {
	return []byte(`"` + k.String() + `"`), nil
}

// DropReason says which admission gate refused a dropped packet.
type DropReason uint8

const (
	// DropInjected: the port's failure-injection DropFn discarded it.
	DropInjected DropReason = iota + 1
	// DropPortBuffer: the per-port buffer capacity was exceeded.
	DropPortBuffer
)

// String implements fmt.Stringer.
func (r DropReason) String() string {
	switch r {
	case DropInjected:
		return "injected"
	case DropPortBuffer:
		return "port-buffer"
	default:
		return fmt.Sprintf("reason(%d)", uint8(r))
	}
}

// PortID identifies a switch (or NIC) output port in a topology.
type PortID struct {
	// Node is the owning switch or host.
	Node pkt.NodeID `json:"node"`
	// Port is the port index within the node.
	Port int32 `json:"port"`
}

// Event is one trace record. It is a fixed-size value type — no
// pointers, no interfaces — so appending one to the ring buffer moves a
// few words and never allocates, and a full ring costs the garbage
// collector nothing to scan.
//
// Field use is kind-specific (see the Kind constants); unused fields
// are zero and omitted from the JSONL export.
type Event struct {
	// Seq is the bus-assigned sequence number: a strict total order over
	// every event the bus recorded, stable across runs of the same
	// deterministic simulation.
	Seq uint64 `json:"seq"`
	// T is the virtual time of the event in nanoseconds.
	T time.Duration `json:"t"`
	// Kind is the event type.
	Kind Kind `json:"kind"`
	// Node and Port identify the emitting port (port events) or are
	// NoNode/-1 for events without a port identity (flow events, blind).
	Node pkt.NodeID `json:"node"`
	Port int32      `json:"port"`
	// Queue is the port queue index (-1 when not applicable).
	Queue int32 `json:"q"`
	// Flow is the transport flow, when known (0 otherwise).
	Flow pkt.FlowID `json:"flow,omitempty"`
	// Pkt is the packet ID for packet events, and the retransmitted
	// sequence number for KindRetransmit.
	Pkt uint64 `json:"pkt,omitempty"`
	// Size is the packet wire size (packet events) or the flow size
	// (KindFlowStart).
	Size int64 `json:"size,omitempty"`
	// Reason is the admission gate for KindDrop.
	Reason DropReason `json:"reason,omitempty"`
	// PortBytes / QueueBytes carry absolute occupancy so depth series
	// reconstructed from a wrapped ring stay correct (no dependence on
	// events lost to the wrap).
	PortBytes  int64 `json:"pb,omitempty"`
	QueueBytes int64 `json:"qb,omitempty"`
	// V is the kind-specific scalar: FCT ns (flow-finish), cwnd segments
	// (cwnd-cut), alpha (alpha), rate bits/sec (rate), filter threshold
	// bytes (blind).
	V float64 `json:"v,omitempty"`
}

// Bus is the simulator-wide observability hub: it assigns event
// sequence numbers and appends records to its ring buffer. A nil *Bus
// is the disabled layer: every method on a nil receiver returns
// immediately, so emit points pay only a pointer test.
//
// A Bus (like the engines that feed it) is not safe for concurrent use:
// attach one bus to one simulation.
type Bus struct {
	ring *Ring
	seq  uint64
}

// NewTraceBus returns a bus recording into an event ring of ringCap
// events; ringCap must be positive. Give the ring a spill sink
// (Ring.SetSpill) to keep every event of a run, not only the newest
// ringCap.
func NewTraceBus(ringCap int) *Bus {
	if ringCap <= 0 {
		panic(fmt.Sprintf("obs: ring capacity %d, want > 0", ringCap))
	}
	return &Bus{ring: NewRing(ringCap)}
}

// Ring returns the event ring (nil on a nil bus).
func (b *Bus) Ring() *Ring {
	if b == nil {
		return nil
	}
	return b.ring
}

// record stamps the next sequence number and appends to the ring.
// Emitters build the Event on their stack and pass a pointer; the ring
// slot assignment is the only full-struct copy. The per-packet probes
// use slot instead — record stays for the low-rate emit points where a
// struct literal reads better.
func (b *Bus) record(ev *Event) {
	ev.Seq = b.seq
	b.seq++
	*b.ring.nextSlot() = *ev
}

// slot claims the next ring slot pre-stamped with sequence number,
// time and kind. The caller fills the remaining fields in place — the
// event is built where it will live and is never copied. The hot emit
// path.
func (b *Bus) slot(t time.Duration, k Kind) *Event {
	ev := b.ring.nextSlot()
	*ev = Event{Seq: b.seq, T: t, Kind: k}
	b.seq++
	return ev
}

// PFCPause records a PFC controller crossing Xoff on the given node.
func (b *Bus) PFCPause(t time.Duration, node pkt.NodeID, buffered int) {
	if b == nil {
		return
	}
	b.record(&Event{T: t, Kind: KindPFCPause, Node: node, Port: -1, Queue: -1,
		PortBytes: int64(buffered)})
}

// PFCResume records a PFC controller draining below Xon.
func (b *Bus) PFCResume(t time.Duration, node pkt.NodeID, buffered int) {
	if b == nil {
		return
	}
	b.record(&Event{T: t, Kind: KindPFCResume, Node: node, Port: -1, Queue: -1,
		PortBytes: int64(buffered)})
}

// Blind records a PMSB selective-blindness suppression: the port was
// over its threshold but queue q sat under its filter threshold, so the
// would-be per-port mark was withheld. The marker has no port identity
// (markers see only an ecn.PortView), so Node/Port are unset.
func (b *Bus) Blind(t time.Duration, q int, portBytes, queueBytes int, threshold float64) {
	if b == nil {
		return
	}
	b.record(&Event{T: t, Kind: KindBlind, Node: pkt.NoNode, Port: -1,
		Queue: int32(q), PortBytes: int64(portBytes), QueueBytes: int64(queueBytes),
		V: threshold})
}
