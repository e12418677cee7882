package netsim

import (
	"time"

	"pmsb/internal/ecn"
	"pmsb/internal/obs"
	"pmsb/internal/pkt"
	"pmsb/internal/sched"
	"pmsb/internal/sim"
	"pmsb/internal/units"
)

// Tap observes packets at a port event (enqueue, dequeue, drop). q is
// the queue the packet was classified into.
type Tap func(p *pkt.Packet, q int)

// tap list indices: the port keeps one slice per event kind and a
// single shared iteration helper (fire), instead of three copies of the
// loop. The Tap registration API is a thin adapter over this.
const (
	tapEnqueue = iota
	tapDequeue
	tapDrop
	numTapKinds
)

// PortConfig configures an output port.
type PortConfig struct {
	// Sched is the packet scheduler owning the port's queues (required).
	Sched sched.Scheduler
	// Marker decides ECN marks; nil means no marking.
	Marker ecn.Marker
	// BufferBytes is the shared per-port buffer capacity; arriving
	// packets that would exceed it are tail-dropped. 0 means unlimited.
	BufferBytes int
	// Classify maps packets to queue indices; the default uses
	// Service modulo the queue count.
	Classify func(p *pkt.Packet) int
	// Pool, when non-nil, tracks this port's occupancy in a shared
	// service pool (for per-service-pool marking).
	Pool *ecn.Pool
	// DropFn, when non-nil, is consulted for every arriving packet;
	// returning true discards it. It exists for failure injection in
	// tests (random loss, targeted loss) and is applied before buffer
	// admission.
	DropFn func(p *pkt.Packet) bool
}

// portExt holds the rarely-used port features — custom classifiers,
// failure injection, service pools, taps and the observability probe.
// Most ports in a large fabric use none of them, so they live behind
// one lazily-allocated pointer instead of widening every port: at
// fat-tree k=32 scale (~49k ports) the
// difference is several megabytes of always-resident state.
type portExt struct {
	classify func(p *pkt.Packet) int
	pool     *ecn.Pool
	dropFn   func(p *pkt.Packet) bool
	probe    *obs.PortProbe
	taps     [numTapKinds][]Tap
}

// Port is an output-queued switch (or NIC) port: classified packets
// enter the scheduler's queues, a single transmitter drains them onto
// the attached link, and the configured marker applies CE marks at its
// mark point. Port implements ecn.PortView for its marker.
//
// The struct is packed into two cache lines (128 bytes): the port's
// link is embedded by value (a port owns exactly one link), the
// engine is reached through it, rare features live behind ext, and the
// secondary counters are 32-bit. The narrow counters wrap at 4
// billion drops/marks per port — far beyond any simulated horizon, and
// an accounting-only concern (the simulation itself never reads them).
type Port struct {
	// out is the attached link; out.eng doubles as the port's clock and
	// timer engine (for a boundary link it is the sending shard's
	// engine, which is exactly this port's shard).
	out    Link
	sched  sched.Scheduler
	marker ecn.Marker
	// inflight is the packet currently being serialized (nil = idle
	// transmitter). The port has a single transmitter, so one field
	// (plus the shared portTxDone trampoline) replaces the per-packet
	// completion closure.
	inflight *pkt.Packet
	ext      *portExt

	// PortStats counters.
	txBytes       int64
	txPackets     uint32
	dropPackets   uint32
	dropBytes     uint32
	markedPackets uint32
	bufferBytes   int32
	nq            uint16
	paused        bool
}

var _ ecn.PortView = (*Port)(nil)

// idleObserver is implemented by schedulers (DWRR) that want to know
// when an enqueue follows an idle period, to reset round-time state.
type idleObserver interface {
	ObserveIdle(now time.Duration)
}

// initPort fills a zeroed port in place — shared by NewPort and the
// arena carve path.
func (p *Port) init(link Link, cfg PortConfig) {
	if cfg.Sched == nil {
		panic("netsim: PortConfig.Sched is required")
	}
	if cfg.Marker == nil {
		cfg.Marker = ecn.None{}
	}
	p.out = link
	p.sched = cfg.Sched
	p.marker = cfg.Marker
	p.bufferBytes = int32(cfg.BufferBytes)
	p.nq = uint16(cfg.Sched.NumQueues())
	if cfg.Classify != nil || cfg.Pool != nil || cfg.DropFn != nil {
		p.ext = &portExt{
			classify: cfg.Classify,
			pool:     cfg.Pool,
			dropFn:   cfg.DropFn,
		}
	}
}

// NewPort creates a port transmitting on link. cfg.Sched must be set.
// The link is copied into the port (a port owns its link); the passed
// pointer remains a valid, equivalent link.
func NewPort(eng *sim.Engine, link *Link, cfg PortConfig) *Port {
	_ = eng // the engine is reached through the link; kept for API compatibility
	p := &Port{}
	p.init(*link, cfg)
	return p
}

// classify maps a packet to its queue: the configured classifier when
// present, else Service modulo the queue count.
func (p *Port) classify(packet *pkt.Packet) int {
	if p.ext != nil && p.ext.classify != nil {
		return p.ext.classify(packet)
	}
	q := packet.Service % int(p.nq)
	if q < 0 {
		q += int(p.nq)
	}
	return q
}

// Send classifies, optionally marks (enqueue point), enqueues, and kicks
// the transmitter. Packets beyond the buffer capacity are tail-dropped.
func (p *Port) Send(packet *pkt.Packet) {
	q := p.classify(packet)
	s := p.sched
	e := p.ext
	if e != nil && e.dropFn != nil && e.dropFn(packet) {
		p.drop(packet, q, obs.DropInjected)
		return
	}
	if p.bufferBytes > 0 && s.TotalBytes()+packet.Size > int(p.bufferBytes) {
		p.drop(packet, q, obs.DropPortBuffer)
		return
	}
	if s.TotalPackets() == 0 {
		if io, ok := s.(idleObserver); ok {
			io.ObserveIdle(p.out.eng.Now())
		}
	}
	packet.EnqueuedAt = p.out.eng.Now()
	// The marking decision observes the queue state *before* the packet
	// is added, matching classic RED/ECN behaviour.
	if packet.ECT && p.marker.Point() == ecn.AtEnqueue &&
		p.marker.ShouldMark(p, q, packet) {
		packet.CE = true
		p.markedPackets++
		if e != nil && e.probe != nil {
			e.probe.Mark(p.out.eng.Now(), q, packet, s.TotalBytes(), s.QueueBytes(q))
		}
	}
	s.Enqueue(q, packet)
	if e != nil {
		if e.pool != nil {
			e.pool.Add(packet.Size)
		}
		if e.probe != nil {
			e.probe.Enqueue(p.out.eng.Now(), q, packet, s.TotalBytes(), s.QueueBytes(q))
		}
		p.fire(tapEnqueue, packet, q)
	}
	p.kick()
}

// drop refuses an arriving packet: count it, let the drop taps (and the
// obs layer) observe it, then release it back to the packet pool — a
// refused packet has no further consumer. Every admission path (failure
// injection, per-port buffer) funnels through here so the accounting
// and the pool release can never diverge.
func (p *Port) drop(packet *pkt.Packet, q int, reason obs.DropReason) {
	p.dropPackets++
	p.dropBytes += uint32(packet.Size)
	if e := p.ext; e != nil {
		if e.probe != nil {
			e.probe.Drop(p.out.eng.Now(), q, packet, reason)
		}
		p.fire(tapDrop, packet, q)
	}
	pkt.Release(packet)
}

// fire invokes the registered taps of one kind — the single iteration
// point behind the three On* registration methods. Callers check
// p.ext != nil first (the common fabric port has no taps).
func (p *Port) fire(kind int, packet *pkt.Packet, q int) {
	for _, tap := range p.ext.taps[kind] {
		tap(packet, q)
	}
}

// kick starts the transmitter if it is idle, unpaused and a packet is
// waiting.
func (p *Port) kick() {
	if p.inflight != nil || p.paused {
		return
	}
	packet, q, ok := p.sched.Dequeue()
	if !ok {
		return
	}
	e := p.ext
	if e != nil && e.pool != nil {
		e.pool.Add(-packet.Size)
	}
	// Dequeue-point marking observes the occupancy without the departing
	// packet (it has already left the queue).
	if packet.ECT && p.marker.Point() == ecn.AtDequeue &&
		p.marker.ShouldMark(p, q, packet) {
		packet.CE = true
		p.markedPackets++
		if e != nil && e.probe != nil {
			e.probe.Mark(p.out.eng.Now(), q, packet, p.sched.TotalBytes(), p.sched.QueueBytes(q))
		}
	}
	if e != nil {
		if e.probe != nil {
			e.probe.Dequeue(p.out.eng.Now(), q, packet, p.sched.TotalBytes(), p.sched.QueueBytes(q))
		}
		p.fire(tapDequeue, packet, q)
	}
	p.inflight = packet
	p.txPackets++
	p.txBytes += int64(packet.Size)
	ser := units.Serialization(packet.Size, p.out.rate)
	p.out.eng.ScheduleCall(ser, portTxDone, p)
}

// portTxDone completes a transmission: hand the in-flight packet to the
// link and restart the transmitter. Shared across all ports (the packet
// rides in the port's inflight field), so serializing a packet costs no
// allocation.
func portTxDone(arg any) {
	p := arg.(*Port)
	packet := p.inflight
	p.inflight = nil
	p.out.Deliver(packet)
	p.kick()
}

// Pause stops the transmitter after the in-flight packet completes
// (PFC backpressure). Buffered packets stay queued; arriving packets
// keep being admitted subject to the buffer limits.
func (p *Port) Pause() { p.paused = true }

// Resume re-enables the transmitter and restarts it if work is queued.
func (p *Port) Resume() {
	if !p.paused {
		return
	}
	p.paused = false
	p.kick()
}

// IsPaused reports whether the transmitter is paused.
func (p *Port) IsPaused() bool { return p.paused }

// extension returns the port's rare-feature block, allocating it on
// first use.
func (p *Port) extension() *portExt {
	if p.ext == nil {
		p.ext = &portExt{}
	}
	return p.ext
}

// OnEnqueue registers a tap invoked after each successful enqueue.
func (p *Port) OnEnqueue(t Tap) {
	e := p.extension()
	e.taps[tapEnqueue] = append(e.taps[tapEnqueue], t)
}

// OnDequeue registers a tap invoked when a packet begins transmission.
func (p *Port) OnDequeue(t Tap) {
	e := p.extension()
	e.taps[tapDequeue] = append(e.taps[tapDequeue], t)
}

// OnDrop registers a tap invoked when a packet is tail-dropped.
func (p *Port) OnDrop(t Tap) {
	e := p.extension()
	e.taps[tapDrop] = append(e.taps[tapDrop], t)
}

// Observe attaches the port to an observability bus under the given
// topology identity (owning node and port index). A nil bus leaves the
// port unobserved; calling with non-nil replaces any earlier probe.
func (p *Port) Observe(bus *obs.Bus, node pkt.NodeID, portIndex int) {
	p.extension().probe = bus.ObservePort(
		obs.PortID{Node: node, Port: int32(portIndex)}, p.sched.NumQueues())
}

// Link returns the attached link.
func (p *Port) Link() *Link { return &p.out }

// Scheduler returns the port's scheduler.
func (p *Port) Scheduler() sched.Scheduler { return p.sched }

// TxPackets returns the number of packets transmitted.
func (p *Port) TxPackets() int64 { return int64(p.txPackets) }

// TxBytes returns the number of bytes transmitted.
func (p *Port) TxBytes() int64 { return p.txBytes }

// DropPackets returns the number of packets tail-dropped.
func (p *Port) DropPackets() int64 { return int64(p.dropPackets) }

// DropBytes returns the number of bytes tail-dropped.
func (p *Port) DropBytes() int64 { return int64(p.dropBytes) }

// MarkedPackets returns the number of packets CE-marked at this port.
func (p *Port) MarkedPackets() int64 { return int64(p.markedPackets) }

// NumQueues implements ecn.PortView.
func (p *Port) NumQueues() int { return int(p.nq) }

// QueueBytes implements ecn.PortView.
func (p *Port) QueueBytes(q int) int { return p.sched.QueueBytes(q) }

// QueuePackets implements ecn.PortView.
func (p *Port) QueuePackets(q int) int { return p.sched.QueuePackets(q) }

// PortBytes implements ecn.PortView.
func (p *Port) PortBytes() int { return p.sched.TotalBytes() }

// PortPackets implements ecn.PortView.
func (p *Port) PortPackets() int { return p.sched.TotalPackets() }

// Weight implements ecn.PortView.
func (p *Port) Weight(q int) float64 { return p.sched.Weight(q) }

// WeightSum implements ecn.PortView.
func (p *Port) WeightSum() float64 { return p.sched.WeightSum() }

// LinkRate implements ecn.PortView.
func (p *Port) LinkRate() units.Rate { return p.out.rate }

// Now implements ecn.PortView.
func (p *Port) Now() time.Duration { return p.out.eng.Now() }

// Round implements ecn.PortView: it exposes round-based scheduler state
// when the scheduler provides it (DWRR), else nil.
func (p *Port) Round() ecn.RoundInfo {
	if ri, ok := p.sched.(sched.RoundInfo); ok {
		return ri
	}
	return nil
}
