package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync/atomic"
	"time"

	"pmsb/internal/ecn"
	"pmsb/internal/netsim"
	"pmsb/internal/pkt"
	"pmsb/internal/sched"
	"pmsb/internal/sim"
	"pmsb/internal/topo"
	"pmsb/internal/units"
)

// The traced run measures each layer from outside, through the seams
// the layers already expose: scheduler and marker wrappers injected via
// topo.PortProfile, handler wrappers re-attached over transport
// endpoints, and Port.OnDequeue taps. Nothing under internal/ knows it
// is being measured.
//
// Every wrapper instance owns its counters (one per port, one per
// host), so shard workers never share a written cache line on the
// per-call path. Wrappers time every sampleEvery-th call, selected by
// call count, so the sample is the same set of calls run to run. Each
// instance starts its count at a different offset (its index), so ports
// that see fewer than sampleEvery calls — most of a k=32 fabric — still
// contribute their share of samples.

const (
	sampleEvery = 64
	// spanCap bounds the sampled spans kept in memory (32 B each).
	spanCap = 1 << 17
	// windowCap bounds the recorded dequeue window per shard (16 B each).
	windowCap = 1 << 20
)

// Span layers and ops, as indices into the name tables below.
const (
	layerBench = iota
	layerTopo
	layerWorkload
	layerTransport
	layerSched
	layerECN
	layerSim
	layerObs
)

var layerNames = [...]string{"bench", "topo", "workload", "transport", "sched", "ecn", "sim", "obs"}

const (
	opRun = iota
	opBuild
	opGenerate
	opInstall
	opTimed
	opEnqueue
	opDequeue
	opDecide
	opHandle
	opReplay
	opRead
)

var opNames = [...]string{"run", "build", "generate", "install", "timed", "enqueue", "dequeue", "decide", "handle", "replay", "read"}

// span is one timed interval. start is nanoseconds since the run span
// began; every span's parent is the run span (id 0), which is all the
// causality visible from outside the layers.
type span struct {
	start int64
	dur   int64
	layer uint8
	op    uint8
}

// tracer collects everything the traced run measures.
type tracer struct {
	t0 time.Time
	// timerNs is the calibrated cost of one empty time.Now pair; it is
	// subtracted from every sampled duration.
	timerNs int64

	scheds  []*schedTap
	markers []*markerTap
	hosts   []hostCounters
	windows []*window

	spans    []span
	spanNext atomic.Int64
}

func newTracer(numHosts, shards int) *tracer {
	tr := &tracer{
		t0:      time.Now(),
		hosts:   make([]hostCounters, numHosts),
		spans:   make([]span, spanCap),
		windows: make([]*window, shards),
	}
	for i := range tr.windows {
		tr.windows[i] = &window{recs: make([]dequeueRec, 0, windowCap)}
	}
	for i := range tr.hosts {
		tr.hosts[i].calls = uint64(i) % sampleEvery
	}
	tr.timerNs = calibrateTimer()
	return tr
}

// calibrateTimer measures the median cost of a back-to-back time.Now
// pair, the overhead every sampled span carries.
func calibrateTimer() int64 {
	const n = 2001
	d := make([]int64, n)
	for i := range d {
		t := time.Now()
		d[i] = int64(time.Since(t))
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return d[n/2]
}

// phase records a top-level span (setup and run phases).
func (tr *tracer) phase(layer, op uint8, start time.Time) {
	if tr == nil {
		return
	}
	tr.addSpan(layer, op, start, int64(time.Since(start)))
}

// addSpan appends one span. The slot claim is the only cross-worker
// write in the tracer, and it happens once per sampleEvery calls.
func (tr *tracer) addSpan(layer, op uint8, start time.Time, dur int64) {
	i := tr.spanNext.Add(1) - 1
	if i >= spanCap {
		return
	}
	tr.spans[i] = span{start: int64(start.Sub(tr.t0)), dur: dur, layer: layer, op: op}
}

// sampled closes a timed call: timer overhead off, span recorded.
func (tr *tracer) sampled(layer, op uint8, start time.Time) int64 {
	dur := int64(time.Since(start)) - tr.timerNs
	if dur < 0 {
		dur = 0
	}
	tr.addSpan(layer, op, start, dur)
	return dur
}

// spansRecorded returns the number of spans kept.
func (tr *tracer) spansRecorded() int {
	n := tr.spanNext.Load()
	if n > spanCap {
		n = spanCap
	}
	return int(n)
}

// writeSpans dumps the kept spans as JSON lines.
func (tr *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintf(bw, "{\"id\":0,\"layer\":%q,\"op\":%q,\"start_ns\":0,\"dur_ns\":%d}\n",
		layerNames[layerBench], opNames[opRun], int64(time.Since(tr.t0)))
	for i, s := range tr.spans[:tr.spansRecorded()] {
		fmt.Fprintf(bw, "{\"id\":%d,\"parent\":0,\"layer\":%q,\"op\":%q,\"start_ns\":%d,\"dur_ns\":%d}\n",
			i+1, layerNames[s.layer], opNames[s.op], s.start, s.dur)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// --- scheduler wrapper ---------------------------------------------------

// depthEdges are the lower edges, in MTU packets, of the histogram of
// port occupancy seen at enqueue: one bucket per packet up to 15, then
// widening. Small enough (96 B) to sit in every port's wrapper at k=32.
var depthEdges = [...]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 24, 32, 48, 64, 96, 128, 192}

func depthBucket(bytes int) int {
	pkts := bytes / units.MTU
	if pkts < 16 {
		return pkts
	}
	b := 16
	for b+1 < len(depthEdges) && pkts >= depthEdges[b+1] {
		b++
	}
	return b
}

// schedTap wraps one port's scheduler.
type schedTap struct {
	sched.Scheduler
	tr *tracer

	// enqueues and dequeues start at base, the instance's sampling
	// offset; rollup takes it off again.
	enqueues, dequeues, empty uint64
	base                      uint64
	enqNs, deqNs              int64
	enqSamples, deqSamples    int64
	maxBytes                  int
	depth                     [len(depthEdges)]uint32
}

func (s *schedTap) Enqueue(q int, p *pkt.Packet) {
	s.enqueues++
	b := s.Scheduler.TotalBytes()
	if b > s.maxBytes {
		s.maxBytes = b
	}
	s.depth[depthBucket(b)]++
	if s.enqueues%sampleEvery != 0 {
		s.Scheduler.Enqueue(q, p)
		return
	}
	t := time.Now()
	s.Scheduler.Enqueue(q, p)
	s.enqNs += s.tr.sampled(layerSched, opEnqueue, t)
	s.enqSamples++
}

func (s *schedTap) Dequeue() (*pkt.Packet, int, bool) {
	s.dequeues++
	if s.dequeues%sampleEvery != 0 {
		p, q, ok := s.Scheduler.Dequeue()
		if !ok {
			s.empty++
		}
		return p, q, ok
	}
	t := time.Now()
	p, q, ok := s.Scheduler.Dequeue()
	s.deqNs += s.tr.sampled(layerSched, opDequeue, t)
	s.deqSamples++
	if !ok {
		s.empty++
	}
	return p, q, ok
}

// idleObserver mirrors the interface netsim.Port discovers by type
// assertion; the wrapper must keep it visible or DWRR's round timing
// (and MQ-ECN with it) silently changes.
type idleObserver interface {
	ObserveIdle(now time.Duration)
}

type schedTapRound struct {
	*schedTap
	sched.RoundInfo
}

type schedTapIdle struct {
	*schedTap
	idleObserver
}

type schedTapRoundIdle struct {
	*schedTap
	sched.RoundInfo
	idleObserver
}

// wrapSched wraps inner, exposing exactly the optional interfaces
// inner has (RoundInfo, ObserveIdle) and no others.
func (tr *tracer) wrapSched(inner sched.Scheduler) sched.Scheduler {
	t := &schedTap{Scheduler: inner, tr: tr}
	t.enqueues = uint64(len(tr.scheds)) % sampleEvery
	t.dequeues, t.base = t.enqueues, t.enqueues
	tr.scheds = append(tr.scheds, t)
	ri, hasRound := inner.(sched.RoundInfo)
	io, hasIdle := inner.(idleObserver)
	switch {
	case hasRound && hasIdle:
		return &schedTapRoundIdle{t, ri, io}
	case hasRound:
		return &schedTapRound{t, ri}
	case hasIdle:
		return &schedTapIdle{t, io}
	}
	return t
}

// --- marker wrapper ------------------------------------------------------

// markerTap wraps one port's marker. portK is PMSB's port threshold:
// a refused mark with the port at or above it is Algorithm 1's
// selective blindness.
type markerTap struct {
	inner ecn.Marker
	tr    *tracer
	portK int

	// decisions starts at base, the instance's sampling offset.
	decisions, marks, blind uint64
	base                    uint64
	ns, samples             int64
}

func (m *markerTap) Name() string     { return m.inner.Name() }
func (m *markerTap) Point() ecn.Point { return m.inner.Point() }

func (m *markerTap) ShouldMark(pv ecn.PortView, q int, p *pkt.Packet) bool {
	m.decisions++
	var mark bool
	if m.decisions%sampleEvery != 0 {
		mark = m.inner.ShouldMark(pv, q, p)
	} else {
		t := time.Now()
		mark = m.inner.ShouldMark(pv, q, p)
		m.ns += m.tr.sampled(layerECN, opDecide, t)
		m.samples++
	}
	switch {
	case mark:
		m.marks++
	case pv.PortBytes() >= m.portK:
		m.blind++
	}
	return mark
}

func (tr *tracer) wrapMarker(inner ecn.Marker, portK int) ecn.Marker {
	t := &markerTap{inner: inner, tr: tr, portK: portK}
	t.base = uint64(len(tr.markers)) % sampleEvery
	t.decisions = t.base
	tr.markers = append(tr.markers, t)
	return t
}

// wrapProfile returns pp with every scheduler and marker it builds
// wrapped. A shared marker becomes one wrapper per port around the same
// inner marker, so counters stay per port.
func (tr *tracer) wrapProfile(pp topo.PortProfile, portK int) topo.PortProfile {
	out := pp
	switch {
	case pp.NewSchedBlock != nil:
		inner := pp.NewSchedBlock
		out.NewSchedBlock = func(eng *sim.Engine, w []float64, n int) func() sched.Scheduler {
			next := inner(eng, w, n)
			return func() sched.Scheduler { return tr.wrapSched(next()) }
		}
	case pp.NewSchedWith != nil:
		inner := pp.NewSchedWith
		out.NewSchedWith = func(eng *sim.Engine, w []float64) sched.Scheduler {
			return tr.wrapSched(inner(eng, w))
		}
	default:
		inner := pp.NewSched
		out.NewSched = func(w []float64) sched.Scheduler { return tr.wrapSched(inner(w)) }
	}
	switch {
	case pp.SharedMarker != nil:
		shared := pp.SharedMarker
		out.SharedMarker = nil
		out.NewMarker = func() ecn.Marker { return tr.wrapMarker(shared, portK) }
	case pp.NewMarker != nil:
		inner := pp.NewMarker
		out.NewMarker = func() ecn.Marker { return tr.wrapMarker(inner(), portK) }
	}
	return out
}

// --- handler wrapper -----------------------------------------------------

// hostCounters is one host's transport account. Flows are too short to
// reach the sampling period on their own (a 50 KB flow is 35 packets),
// so the call count that selects samples is the host's.
type hostCounters struct {
	calls   uint64 // starts at the host's sampling offset (index % sampleEvery)
	ns      int64
	samples int64
	_       [40]byte // keep neighbouring hosts on separate cache lines
}

type handlerTap struct {
	inner netsim.Handler
	c     *hostCounters
	tr    *tracer
}

func (h *handlerTap) Handle(p *pkt.Packet) {
	c := h.c
	c.calls++
	if c.calls%sampleEvery != 0 {
		h.inner.Handle(p)
		return
	}
	t := time.Now()
	h.inner.Handle(p)
	c.ns += h.tr.sampled(layerTransport, opHandle, t)
	c.samples++
}

// tapHandler re-attaches hd at host (index hostIdx) behind a wrapper.
func (tr *tracer) tapHandler(host *netsim.Host, hostIdx int, flow pkt.FlowID, hd netsim.Handler) {
	host.Attach(flow, &handlerTap{inner: hd, c: &tr.hosts[hostIdx], tr: tr})
}

// --- dequeue window ------------------------------------------------------

// dequeueRec is one recorded transmission start: the two events it
// caused are at now+ser (serialization done) and, scheduled from
// there, +delay (arrival at the far end).
type dequeueRec struct {
	now   int64
	ser   int32
	delay int32
}

// window is one shard's recorded run of consecutive dequeues, plus the
// flow starts the benchmark itself scheduled on that shard.
type window struct {
	recs   []dequeueRec
	starts []time.Duration
}

// tapPort records every transmission start of port into w until the
// window is full.
func (w *window) tapPort(port *netsim.Port) {
	rate, delay := port.LinkRate(), int32(port.Link().Delay())
	port.OnDequeue(func(p *pkt.Packet, _ int) {
		if len(w.recs) == cap(w.recs) {
			return
		}
		w.recs = append(w.recs, dequeueRec{
			now:   int64(port.Now()),
			ser:   int32(units.Serialization(p.Size, rate)),
			delay: delay,
		})
	})
}

// --- roll-up -------------------------------------------------------------

// perOp returns total sampled ns / samples (0 with no samples).
func perOp(ns, samples int64) float64 {
	if samples == 0 {
		return 0
	}
	return float64(ns) / float64(samples)
}

// rollup folds the wrapper counters into per-layer metrics and returns
// the estimated total time inside the wrapped layers. timedNs is the
// traced run's timed-phase wall, the base of the busy shares.
func (tr *tracer) rollup(m map[string]float64, timedNs float64) (layersNs float64) {
	var s schedTap
	var depth [len(depthEdges)]uint64
	for _, t := range tr.scheds {
		s.enqueues += t.enqueues - t.base
		s.dequeues += t.dequeues - t.base
		s.empty += t.empty
		s.enqNs += t.enqNs
		s.deqNs += t.deqNs
		s.enqSamples += t.enqSamples
		s.deqSamples += t.deqSamples
		if t.maxBytes > s.maxBytes {
			s.maxBytes = t.maxBytes
		}
		for i, n := range t.depth {
			depth[i] += uint64(n)
		}
	}
	enqNs, deqNs := perOp(s.enqNs, s.enqSamples), perOp(s.deqNs, s.deqSamples)
	m["sched.enqueue_calls"] = float64(s.enqueues)
	m["sched.dequeue_calls"] = float64(s.dequeues)
	m["sched.dequeue_empty"] = float64(s.empty)
	m["sched.dequeue_hit_ratio"] = ratio(float64(s.dequeues-s.empty), float64(s.dequeues))
	m["sched.enqueue_ns"] = enqNs
	m["sched.dequeue_ns"] = deqNs
	schedNs := enqNs*float64(s.enqueues) + deqNs*float64(s.dequeues)
	m["sched.busy_share"] = ratio(schedNs, timedNs)
	m["sched.port_bytes_max"] = float64(s.maxBytes)
	var seen uint64
	for i, n := range depth {
		seen += n
		if 2*seen >= s.enqueues && s.enqueues > 0 {
			m["sched.port_bytes_p50"] = float64(depthEdges[i] * units.MTU)
			break
		}
	}

	var k markerTap
	for _, t := range tr.markers {
		k.decisions += t.decisions - t.base
		k.marks += t.marks
		k.blind += t.blind
		k.ns += t.ns
		k.samples += t.samples
	}
	decideNs := perOp(k.ns, k.samples)
	m["ecn.decisions"] = float64(k.decisions)
	m["ecn.marks"] = float64(k.marks)
	m["ecn.blind"] = float64(k.blind)
	m["ecn.mark_ratio"] = ratio(float64(k.marks), float64(k.decisions))
	m["ecn.blind_ratio"] = ratio(float64(k.blind), float64(k.decisions))
	m["ecn.decide_ns"] = decideNs
	ecnNs := decideNs * float64(k.decisions)
	m["ecn.busy_share"] = ratio(ecnNs, timedNs)

	var h hostCounters
	for i := range tr.hosts {
		h.calls += tr.hosts[i].calls - uint64(i)%sampleEvery
		h.ns += tr.hosts[i].ns
		h.samples += tr.hosts[i].samples
	}
	handleNs := perOp(h.ns, h.samples)
	m["transport.handle_calls"] = float64(h.calls)
	m["transport.handle_ns"] = handleNs
	transportNs := handleNs * float64(h.calls)
	m["transport.busy_share"] = ratio(transportNs, timedNs)
	return schedNs + ecnNs + transportNs
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
