package transport

import (
	"time"

	"pmsb/internal/netsim"
	"pmsb/internal/obs"
	"pmsb/internal/pkt"
	"pmsb/internal/sim"
	"pmsb/internal/units"
)

// DCQCN-style rate-based congestion control (Zhu et al., SIGCOMM 2015 —
// the paper's reference [18]). Where DCTCP adjusts a window, DCQCN
// paces packets at an explicit rate and reacts to Congestion
// Notification Packets (CNPs) the receiver emits when it sees CE marks:
//
//   - on CNP:        Rt = Rc; Rc = Rc * (1 - alpha/2)
//   - alpha update:  alpha = (1-g)*alpha + g*[CNP seen this period]
//   - recovery:      every period, Rc = (Rt + Rc) / 2 (fast recovery),
//     then additive target increases Rt += AI.
//
// The model omits RoCE's NAK-based reliability (DCQCN assumes a
// near-lossless fabric): it is an open-loop paced source, which is
// exactly what's needed to show PMSB's marking discipline also steers
// rate-based transports.
type DCQCNConfig struct {
	// StartRate is the initial (line) rate.
	StartRate units.Rate
	// MinRate floors the current rate (default 10 Mbps).
	MinRate units.Rate
	// G is the alpha gain (default 1/16).
	G float64
	// AlphaPeriod is the alpha update interval (default 55us).
	AlphaPeriod time.Duration
	// RecoveryPeriod is the rate-increase interval (default 55us, the
	// DCQCN timer).
	RecoveryPeriod time.Duration
	// FastRecoverySteps is the number of hyperbolic recovery steps
	// before additive increase starts (default 5).
	FastRecoverySteps int
	// AI is the additive increase applied to the target rate per
	// period after fast recovery (default 40 Mbps).
	AI units.Rate
	// PacketSize is the wire size of generated packets (default MTU).
	PacketSize int
	// Obs, when non-nil, receives flow-start, CNP rate-cut and alpha
	// events.
	Obs *obs.Bus
}

func (c DCQCNConfig) withDefaults() DCQCNConfig {
	if c.StartRate <= 0 {
		c.StartRate = 10 * units.Gbps
	}
	if c.MinRate <= 0 {
		c.MinRate = 10 * units.Mbps
	}
	if c.G <= 0 {
		c.G = 1.0 / 16.0
	}
	if c.AlphaPeriod <= 0 {
		c.AlphaPeriod = 55 * time.Microsecond
	}
	if c.RecoveryPeriod <= 0 {
		c.RecoveryPeriod = 55 * time.Microsecond
	}
	if c.FastRecoverySteps <= 0 {
		c.FastRecoverySteps = 5
	}
	if c.AI <= 0 {
		c.AI = 40 * units.Mbps
	}
	if c.PacketSize <= 0 {
		c.PacketSize = units.MTU
	}
	return c
}

// DCQCNSender is a paced, rate-controlled source.
type DCQCNSender struct {
	eng     *sim.Engine
	host    *netsim.Host
	flow    pkt.FlowID
	dst     pkt.NodeID
	service int
	cfg     DCQCNConfig

	rc, rt   float64 // current and target rate, bits/sec
	alpha    float64
	cnpSeen  bool // since last alpha update
	steps    int  // recovery steps since last cut
	running  bool
	sent     int64
	cnpCount int64

	nextPktID uint64
	sendTimer sim.Timer
	alphaTick *sim.Ticker
	recoverT  *sim.Ticker

	probe *obs.FlowProbe
}

// NewDCQCNSender creates a DCQCN source at src targeting dst. Call
// Start to begin and Stop to end.
func NewDCQCNSender(eng *sim.Engine, src *netsim.Host, f pkt.FlowID, dst pkt.NodeID,
	service int, cfg DCQCNConfig) *DCQCNSender {
	s := &DCQCNSender{
		eng:     eng,
		host:    src,
		flow:    f,
		dst:     dst,
		service: service,
		cfg:     cfg.withDefaults(),
	}
	s.rc = float64(s.cfg.StartRate)
	s.rt = s.rc
	// DCQCN initializes alpha to 1 (assume congestion until told
	// otherwise).
	s.alpha = 1
	src.Attach(f, netsim.HandlerFunc(s.handleCNP))
	return s
}

// Start begins paced transmission and the DCQCN timers.
func (s *DCQCNSender) Start() {
	if s.running {
		return
	}
	s.running = true
	s.probe = s.cfg.Obs.OpenFlow(s.eng.Now(), s.flow, s.service, 0)
	s.alphaTick = s.eng.Every(s.cfg.AlphaPeriod, s.updateAlpha)
	s.recoverT = s.eng.Every(s.cfg.RecoveryPeriod, s.increase)
	s.sendNext()
}

// Stop halts transmission and timers.
func (s *DCQCNSender) Stop() {
	if !s.running {
		return
	}
	s.running = false
	s.sendTimer.Cancel()
	s.alphaTick.Stop()
	s.recoverT.Stop()
	s.host.Detach(s.flow)
}

// Rate returns the current sending rate.
func (s *DCQCNSender) Rate() units.Rate { return units.Rate(s.rc) }

// Alpha returns the congestion estimate.
func (s *DCQCNSender) Alpha() float64 { return s.alpha }

// SentBytes returns the bytes transmitted so far.
func (s *DCQCNSender) SentBytes() int64 { return s.sent }

// CNPs returns the number of congestion notifications received.
func (s *DCQCNSender) CNPs() int64 { return s.cnpCount }

// dcqcnSend is the pacing trampoline (the sender rides in the event
// arg, so per-packet pacing never allocates).
func dcqcnSend(arg any) { arg.(*DCQCNSender).sendNext() }

func (s *DCQCNSender) sendNext() {
	if !s.running {
		return
	}
	s.nextPktID++
	p := pkt.Get()
	p.ID = s.nextPktID
	p.Flow = s.flow
	p.Src = s.host.NodeID()
	p.Dst = s.dst
	p.Size = s.cfg.PacketSize
	p.Payload = s.cfg.PacketSize - units.HeaderSize
	p.ECT = true
	p.Service = s.service
	p.SentAt = s.eng.Now()
	size := p.Size
	s.host.Send(p)
	s.sent += int64(size)
	gap := units.Serialization(size, units.Rate(s.rc))
	s.sendTimer = s.eng.ScheduleCall(gap, dcqcnSend, s)
}

// handleCNP reacts to a congestion notification: cut the rate using the
// current alpha and restart recovery. The CNP is consumed here and
// returns to the pool.
func (s *DCQCNSender) handleCNP(p *pkt.Packet) {
	defer pkt.Release(p)
	if !p.IsAck || !p.ECE || !s.running {
		return
	}
	s.cnpCount++
	s.cnpSeen = true
	s.rt = s.rc
	s.rc = s.rc * (1 - s.alpha/2)
	if min := float64(s.cfg.MinRate); s.rc < min {
		s.rc = min
	}
	s.steps = 0
	s.probe.Rate(s.eng.Now(), s.rc)
}

func (s *DCQCNSender) updateAlpha() {
	seen := 0.0
	if s.cnpSeen {
		seen = 1
	}
	s.alpha = (1-s.cfg.G)*s.alpha + s.cfg.G*seen
	s.cnpSeen = false
	s.probe.Alpha(s.eng.Now(), s.alpha, s.sent)
}

// increase runs the periodic rate recovery: hyperbolic toward the
// target, then additive growth of the target.
func (s *DCQCNSender) increase() {
	s.steps++
	if s.steps > s.cfg.FastRecoverySteps {
		s.rt += float64(s.cfg.AI)
		if max := float64(s.cfg.StartRate); s.rt > max {
			s.rt = max
		}
	}
	s.rc = (s.rt + s.rc) / 2
}

// DCQCNReceiver terminates a DCQCN flow: it counts delivered bytes and
// emits at most one CNP per CNPInterval when it sees CE-marked packets.
type DCQCNReceiver struct {
	eng     *sim.Engine
	host    *netsim.Host
	flow    pkt.FlowID
	src     pkt.NodeID
	service int
	// CNPInterval rate-limits notifications (default 50us, the NIC
	// behaviour DCQCN specifies).
	interval time.Duration

	lastCNP   time.Duration
	sentCNP   bool
	rxBytes   int64
	ceCount   int64
	nextPktID uint64
}

// NewDCQCNReceiver attaches a receiver for flow f at dst.
func NewDCQCNReceiver(eng *sim.Engine, dst *netsim.Host, f pkt.FlowID, src pkt.NodeID,
	service int, cnpInterval time.Duration) *DCQCNReceiver {
	if cnpInterval <= 0 {
		cnpInterval = 50 * time.Microsecond
	}
	r := &DCQCNReceiver{
		eng:      eng,
		host:     dst,
		flow:     f,
		src:      src,
		service:  service,
		interval: cnpInterval,
	}
	dst.Attach(f, netsim.HandlerFunc(r.handleData))
	return r
}

// RxBytes returns the delivered bytes.
func (r *DCQCNReceiver) RxBytes() int64 { return r.rxBytes }

// CEMarked returns the CE-marked packet count.
func (r *DCQCNReceiver) CEMarked() int64 { return r.ceCount }

// Close detaches the receiver.
func (r *DCQCNReceiver) Close() { r.host.Detach(r.flow) }

func (r *DCQCNReceiver) handleData(p *pkt.Packet) {
	defer pkt.Release(p)
	if p.IsAck {
		return
	}
	r.rxBytes += int64(p.Payload)
	if !p.CE {
		return
	}
	r.ceCount++
	now := r.eng.Now()
	if r.sentCNP && now-r.lastCNP < r.interval {
		return
	}
	r.lastCNP = now
	r.sentCNP = true
	r.nextPktID++
	cnp := pkt.Get()
	cnp.ID = r.nextPktID
	cnp.Flow = r.flow
	cnp.Src = r.host.NodeID()
	cnp.Dst = r.src
	cnp.Size = units.AckSize
	cnp.IsAck = true
	cnp.ECE = true
	cnp.Service = r.service
	cnp.Echo = p.SentAt
	r.host.Send(cnp)
}
