package transport

import (
	"sync"
	"time"

	"pmsb/internal/netsim"
	"pmsb/internal/obs"
	"pmsb/internal/pkt"
	"pmsb/internal/sim"
	"pmsb/internal/units"
)

// Sender is a DCTCP sender endpoint. Create it with NewSender (or the
// Flow convenience wrapper), then call Start.
type Sender struct {
	eng     *sim.Engine
	host    *netsim.Host
	flow    pkt.FlowID
	dst     pkt.NodeID
	service int
	size    int64 // total bytes to send; 0 = long-lived (unbounded)
	cfg     Config

	// Congestion state. cwnd and ssthresh are in segments.
	cwnd     float64
	ssthresh float64
	alpha    float64

	// DCTCP observation window: when sndUna passes alphaSeq, alpha is
	// refreshed from the marked/acked byte counts.
	alphaSeq    int64
	bytesAcked  int64
	bytesMarked int64
	// cutSeq implements "at most one window reduction per RTT".
	cutSeq int64

	sndNxt, sndUna int64
	dupAcks        int
	recovering     bool
	recoverSeq     int64

	rtoTimer sim.Timer
	// rtoDeadline is when the outstanding data actually times out. The
	// timer is lazy: every ACK pushes the deadline forward without
	// touching the armed event, and the fire handler re-arms for the
	// remainder. This keeps one pending RTO event per flow instead of a
	// cancelled record per ACK — the allocation churn that used to
	// dominate the transport benchmarks.
	rtoDeadline time.Duration
	rtoBackoff  int
	srtt        time.Duration

	// Pacing state for rate-limited senders.
	nextSendAt time.Duration
	paceTimer  sim.Timer

	lastRTT time.Duration
	minRTT  time.Duration

	started, finished bool
	startedAt         time.Duration
	fct               time.Duration
	onComplete        func(s *Sender)

	nextPktID uint64

	// Stats.
	retransmits   int64
	marksSeen     int64
	marksAccepted int64
	rttSamples    []time.Duration
	recordRTT     bool

	// probe is the flow's handle into the observability layer; nil
	// (cfg.Obs unset) makes every emit a single pointer test.
	probe *obs.FlowProbe
}

// senderPool recycles Sender records across flows: workload sweeps
// create thousands of short flows, and reusing the records (together
// with Flow.Release) removes per-flow setup allocations. A released
// record may still be referenced by cancelled timer events riding the
// queue; those are reaped without firing, so reuse is safe.
var senderPool = sync.Pool{New: func() any { return new(Sender) }}

// NewSender creates a DCTCP sender at host src sending size bytes (0 for
// a long-lived flow) to dst under flow id f, classified into the given
// service. onComplete (may be nil) fires when the last byte is acked.
// The sender is driven by src's engine (identical to eng in
// single-engine topologies; in sharded ones the host's shard engine is
// the only correct clock, so eng is consulted only when src has no
// engine of its own).
func NewSender(eng *sim.Engine, src *netsim.Host, f pkt.FlowID, dst pkt.NodeID,
	service int, size int64, cfg Config, onComplete func(*Sender)) *Sender {
	if he := src.Engine(); he != nil {
		eng = he
	}
	s := senderPool.Get().(*Sender)
	*s = Sender{
		eng:        eng,
		host:       src,
		flow:       f,
		dst:        dst,
		service:    service,
		size:       size,
		cfg:        cfg.withDefaults(),
		onComplete: onComplete,
	}
	s.cwnd = float64(s.cfg.InitWindow)
	s.ssthresh = float64(s.cfg.MaxWindow)
	src.Attach(f, s)
	return s
}

// Handle implements netsim.Handler: the sender consumes its flow's
// ACKs directly, with no adapter closure.
func (s *Sender) Handle(p *pkt.Packet) { s.handleAck(p) }

// release detaches the sender from its host, disarms its timers and
// returns the record to the pool. See Flow.Release.
func (s *Sender) release() {
	s.rtoTimer.Cancel()
	s.paceTimer.Cancel()
	s.host.Detach(s.flow)
	s.onComplete = nil
	s.cfg = Config{}
	s.probe = nil
	s.rttSamples = nil
	senderPool.Put(s)
}

// Start begins transmission at the current virtual time.
func (s *Sender) Start() {
	if s.started {
		return
	}
	s.started = true
	s.startedAt = s.eng.Now()
	s.alphaSeq = 0
	s.probe = s.cfg.Obs.OpenFlow(s.startedAt, s.flow, s.service, s.size)
	s.trySend()
}

// senderStart is the flow-start trampoline (the sender rides in the
// event arg), so scheduling a start never allocates.
func senderStart(arg any) { arg.(*Sender).Start() }

// StartAt schedules Start at absolute virtual time at. It is the
// allocation-free alternative to eng.ScheduleAt(at, s.Start), and it
// always lands on the sender's own engine — required in sharded
// topologies, where the caller may not hold the right shard's engine.
func (s *Sender) StartAt(at time.Duration) {
	s.eng.ScheduleCallAt(at, senderStart, s)
}

// Flow returns the sender's flow ID.
func (s *Sender) Flow() pkt.FlowID { return s.flow }

// Finished reports whether the flow completed (all bytes acked).
func (s *Sender) Finished() bool { return s.finished }

// FCT returns the flow completion time (valid once Finished).
func (s *Sender) FCT() time.Duration { return s.fct }

// Size returns the flow size in bytes (0 for long-lived flows).
func (s *Sender) Size() int64 { return s.size }

// Service returns the flow's service class.
func (s *Sender) Service() int { return s.service }

// Alpha returns the current DCTCP congestion estimate.
func (s *Sender) Alpha() float64 { return s.alpha }

// Cwnd returns the congestion window in segments.
func (s *Sender) Cwnd() float64 { return s.cwnd }

// MinRTT returns the smallest RTT sample seen.
func (s *Sender) MinRTT() time.Duration { return s.minRTT }

// Retransmits returns the number of retransmitted segments.
func (s *Sender) Retransmits() int64 { return s.retransmits }

// MarksSeen returns how many marked ACKs arrived; MarksAccepted how many
// the filter let through.
func (s *Sender) MarksSeen() int64 { return s.marksSeen }

// MarksAccepted returns the number of marks the sender reacted to.
func (s *Sender) MarksAccepted() int64 { return s.marksAccepted }

// rttSamplePool recycles sample slices across flows, so the many
// short flows of a workload sweep record RTTs without growing a fresh
// slice each (see ReleaseRTTSamples).
var rttSamplePool = sync.Pool{
	New: func() any { return make([]time.Duration, 0, 1024) },
}

// RecordRTT makes the sender keep every RTT sample (for CDF plots).
// The sample slice comes from a shared pool and is sized up front for
// bounded flows, so recording adds no per-ACK allocations.
func (s *Sender) RecordRTT() {
	s.recordRTT = true
	if s.rttSamples != nil {
		return
	}
	if s.size > 0 {
		// One sample per full segment is the ceiling; reserve exactly
		// that for mid-size flows. Huge flows fall through to the pool
		// and grow organically rather than pinning megabyte reservations.
		if need := int(s.size/int64(s.cfg.MSS)) + 16; need > 1024 && need <= 4096 {
			s.rttSamples = make([]time.Duration, 0, need)
			return
		}
	}
	s.rttSamples = rttSamplePool.Get().([]time.Duration)[:0]
}

// RTTSamples returns the recorded samples (RecordRTT must be on).
func (s *Sender) RTTSamples() []time.Duration { return s.rttSamples }

// ReleaseRTTSamples returns the sample slice to the shared pool. Call
// it once the samples have been consumed; the slice returned by
// RTTSamples must not be used afterwards.
func (s *Sender) ReleaseRTTSamples() {
	if s.rttSamples == nil {
		return
	}
	rttSamplePool.Put(s.rttSamples[:0])
	s.rttSamples = nil
	s.recordRTT = false
}

// AckedBytes returns the cumulative acknowledged bytes.
func (s *Sender) AckedBytes() int64 { return s.sndUna }

// inflight returns the unacknowledged bytes.
func (s *Sender) inflight() int64 { return s.sndNxt - s.sndUna }

// trySend transmits as many new segments as the window (and pacing
// rate) permit.
func (s *Sender) trySend() {
	if !s.started || s.finished {
		return
	}
	mss := int64(s.cfg.MSS)
	for {
		if s.size > 0 && s.sndNxt >= s.size {
			break
		}
		wnd := int64(s.cwnd * float64(mss))
		if s.inflight()+mss > wnd {
			break
		}
		if s.cfg.RateLimit > 0 {
			now := s.eng.Now()
			if now < s.nextSendAt {
				s.schedulePace()
				break
			}
		}
		s.sendSegment(s.sndNxt, false)
		s.sndNxt += s.segmentLen(s.sndNxt)
	}
	s.armRTO()
}

// segmentLen returns the payload length of the segment starting at seq.
func (s *Sender) segmentLen(seq int64) int64 {
	mss := int64(s.cfg.MSS)
	if s.size > 0 && s.size-seq < mss {
		return s.size - seq
	}
	return mss
}

// sendSegment emits the segment starting at seq (new data or
// retransmission).
func (s *Sender) sendSegment(seq int64, retx bool) {
	payload := s.segmentLen(seq)
	s.nextPktID++
	p := pkt.Get()
	p.ID = s.nextPktID
	p.Flow = s.flow
	p.Src = s.host.NodeID()
	p.Dst = s.dst
	p.Size = int(payload) + units.HeaderSize
	p.Payload = int(payload)
	p.Seq = seq
	p.ECT = !s.cfg.DisableECN
	p.Service = s.service
	p.SentAt = s.eng.Now()
	if retx {
		s.retransmits++
		s.probe.Retransmit(s.eng.Now(), seq)
	}
	if s.cfg.RateLimit > 0 {
		now := s.eng.Now()
		if s.nextSendAt < now {
			s.nextSendAt = now
		}
		s.nextSendAt += units.Serialization(p.Size, s.cfg.RateLimit)
	}
	s.host.Send(p)
}

// senderPace and senderRTO are the shared timer trampolines: the sender
// itself rides in the event arg, so (re)arming the per-packet pacing
// and retransmission timers never allocates.
func senderPace(arg any) { arg.(*Sender).trySend() }
func senderRTO(arg any)  { arg.(*Sender).onRTOTimer() }

// schedulePace arms a timer to resume sending when pacing allows.
func (s *Sender) schedulePace() {
	if s.paceTimer.Active() {
		return
	}
	delay := s.nextSendAt - s.eng.Now()
	s.paceTimer = s.eng.ScheduleCall(delay, senderPace, s)
}

// handleAck processes an incoming (cumulative) acknowledgement. The
// sender is the ACK's terminal consumer: the packet returns to the pool
// when handling completes.
func (s *Sender) handleAck(p *pkt.Packet) {
	defer pkt.Release(p)
	if !p.IsAck || s.finished {
		return
	}
	now := s.eng.Now()
	// Echo carries the data packet's SentAt (0 is a valid send time at
	// the very start of the simulation).
	if rtt := now - p.Echo; rtt >= 0 {
		s.lastRTT = rtt
		if s.minRTT == 0 || rtt < s.minRTT {
			s.minRTT = rtt
		}
		if s.srtt == 0 {
			s.srtt = rtt
		} else {
			s.srtt = (7*s.srtt + rtt) / 8
		}
		if s.recordRTT {
			s.rttSamples = append(s.rttSamples, rtt)
		}
	}

	marked := p.ECE
	if marked {
		s.marksSeen++
	}
	// Selective blindness hook: PMSB(e) may veto the congestion signal.
	accepted := marked
	if s.cfg.Filter != nil {
		accepted = s.cfg.Filter.Accept(s.lastRTT, marked)
	}
	if accepted {
		s.marksAccepted++
	}

	switch {
	case p.AckNo > s.sndUna:
		s.onNewAck(p.AckNo, accepted)
	case p.AckNo == s.sndUna:
		s.onDupAck()
	}
	if s.finished {
		return
	}
	s.trySend()
}

// onNewAck advances the window for n newly acknowledged bytes.
func (s *Sender) onNewAck(ackNo int64, accepted bool) {
	n := ackNo - s.sndUna
	s.sndUna = ackNo
	s.dupAcks = 0
	s.rtoBackoff = 0

	// DCTCP byte accounting for the alpha estimator.
	s.bytesAcked += n
	if accepted {
		s.bytesMarked += n
	}
	if s.sndUna >= s.alphaSeq {
		if s.bytesAcked > 0 {
			f := float64(s.bytesMarked) / float64(s.bytesAcked)
			s.alpha = (1-s.cfg.G)*s.alpha + s.cfg.G*f
		}
		s.bytesAcked, s.bytesMarked = 0, 0
		s.alphaSeq = s.sndNxt
		s.probe.Alpha(s.eng.Now(), s.alpha, s.sndUna)
	}

	if s.recovering && s.sndUna >= s.recoverSeq {
		s.recovering = false
	}

	// Window growth: slow start adds one segment per acked segment;
	// congestion avoidance adds 1/cwnd per acked segment.
	segs := float64(n) / float64(s.cfg.MSS)
	if s.cwnd < s.ssthresh {
		s.cwnd += segs
	} else {
		s.cwnd += segs / s.cwnd
	}
	if s.cwnd > float64(s.cfg.MaxWindow) {
		s.cwnd = float64(s.cfg.MaxWindow)
	}

	// DCTCP cut: at most once per window of data.
	if accepted && s.sndUna > s.cutSeq {
		s.cwnd = s.cwnd * (1 - s.alpha/2)
		if s.cwnd < 1 {
			s.cwnd = 1
		}
		s.ssthresh = s.cwnd
		s.cutSeq = s.sndNxt
		s.probe.CwndCut(s.eng.Now(), s.cwnd)
	}

	if s.size > 0 && s.sndUna >= s.size {
		s.complete()
		return
	}
	s.armRTO()
}

// onDupAck counts duplicate ACKs and fast-retransmits on the third.
func (s *Sender) onDupAck() {
	if s.inflight() == 0 {
		return
	}
	s.dupAcks++
	if s.dupAcks == 3 && !s.recovering {
		s.recovering = true
		s.recoverSeq = s.sndNxt
		s.ssthresh = s.cwnd / 2
		if s.ssthresh < 2 {
			s.ssthresh = 2
		}
		s.cwnd = s.ssthresh
		s.sendSegment(s.sndUna, true)
	}
}

// armRTO moves the retransmission deadline while data is in flight. An
// already-armed timer that fires at or before the new deadline is left
// alone — its handler re-arms for the remainder — so the steady ACK
// stream never cancels or reschedules events.
func (s *Sender) armRTO() {
	if s.inflight() == 0 || s.finished {
		s.rtoTimer.Cancel()
		return
	}
	rto := s.cfg.MinRTO
	if est := 2 * s.srtt; est > rto {
		rto = est
	}
	rto <<= s.rtoBackoff
	s.rtoDeadline = s.eng.Now() + rto
	if at, ok := s.rtoTimer.When(); ok {
		if at <= s.rtoDeadline {
			return
		}
		// The deadline moved earlier (RTO shrank after a backoff reset):
		// re-arm precisely rather than time out late.
		s.rtoTimer.Cancel()
	}
	s.rtoTimer = s.eng.ScheduleCall(rto, senderRTO, s)
}

// onRTOTimer fires when the armed RTO event expires. If ACKs have
// pushed the real deadline past the armed time, sleep out the
// remainder; otherwise the outstanding data genuinely timed out.
func (s *Sender) onRTOTimer() {
	if s.finished || s.inflight() == 0 {
		return
	}
	if now := s.eng.Now(); now < s.rtoDeadline {
		s.rtoTimer = s.eng.ScheduleCall(s.rtoDeadline-now, senderRTO, s)
		return
	}
	s.onRTO()
}

// onRTO handles a retransmission timeout: go-back-N restart from sndUna
// with a window of one segment.
func (s *Sender) onRTO() {
	if s.finished || s.inflight() == 0 {
		return
	}
	s.probe.RTO(s.eng.Now())
	s.ssthresh = s.cwnd / 2
	if s.ssthresh < 2 {
		s.ssthresh = 2
	}
	s.cwnd = 1
	s.recovering = false
	s.dupAcks = 0
	s.sndNxt = s.sndUna // go-back-N: resend everything outstanding
	if s.rtoBackoff < 6 {
		s.rtoBackoff++
	}
	s.sendSegment(s.sndUna, true)
	s.sndNxt += s.segmentLen(s.sndUna)
	s.armRTO()
}

// complete finalizes the flow. The sender stays attached to its host so
// ACKs still in flight land on a finished (and silent) endpoint instead
// of counting as unclaimed traffic.
func (s *Sender) complete() {
	s.finished = true
	s.fct = s.eng.Now() - s.startedAt
	s.rtoTimer.Cancel()
	s.paceTimer.Cancel()
	s.probe.Finish(s.eng.Now(), s.fct, s.sndUna)
	if s.onComplete != nil {
		s.onComplete(s)
	}
}
