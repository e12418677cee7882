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
// rate-based transports. Packets are MTU-sized.
type DCQCNConfig struct {
	// StartRate is the initial (line) rate.
	StartRate units.Rate
	// MinRate floors the current rate (default 10 Mbps).
	MinRate units.Rate
	// Obs, when non-nil, receives flow-start, CNP rate-cut and alpha
	// events.
	Obs *obs.Bus
}

// DCQCN's fixed parameters, the defaults of Zhu et al.
const (
	dcqcnG                 = 1.0 / 16.0            // alpha gain
	dcqcnAlphaPeriod       = 55 * time.Microsecond // alpha update interval
	dcqcnRecoveryPeriod    = 55 * time.Microsecond // rate-increase interval (the DCQCN timer)
	dcqcnFastRecoverySteps = 5                     // hyperbolic steps before additive increase
	dcqcnAI                = 40 * units.Mbps       // target increase per period after fast recovery
	dcqcnCNPInterval       = 50 * time.Microsecond // receiver's minimum CNP spacing
)

func (c DCQCNConfig) withDefaults() DCQCNConfig {
	if c.StartRate <= 0 {
		c.StartRate = 10 * units.Gbps
	}
	if c.MinRate <= 0 {
		c.MinRate = 10 * units.Mbps
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

	probe *obs.FlowProbe
}

// NewDCQCNSender creates a DCQCN source at src targeting dst. Call
// Start to begin; it sends until the run ends.
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
	s.eng.Every(dcqcnAlphaPeriod, s.updateAlpha)
	s.eng.Every(dcqcnRecoveryPeriod, s.increase)
	s.sendNext()
}

// dcqcnSend is the pacing trampoline (the sender rides in the event
// arg, so per-packet pacing never allocates).
func dcqcnSend(arg any) { arg.(*DCQCNSender).sendNext() }

func (s *DCQCNSender) sendNext() {
	s.nextPktID++
	p := pkt.Get()
	p.ID = s.nextPktID
	p.Flow = s.flow
	p.Src = s.host.NodeID()
	p.Dst = s.dst
	p.Size = units.MTU
	p.Payload = units.MTU - units.HeaderSize
	p.ECT = true
	p.Service = s.service
	p.SentAt = s.eng.Now()
	size := p.Size
	s.host.Send(p)
	s.sent += int64(size)
	gap := units.Serialization(size, units.Rate(s.rc))
	s.eng.ScheduleCall(gap, dcqcnSend, s)
}

// handleCNP reacts to a congestion notification: cut the rate using the
// current alpha and restart recovery. The CNP is consumed here and
// returns to the pool.
func (s *DCQCNSender) handleCNP(p *pkt.Packet) {
	defer pkt.Release(p)
	if !p.IsAck || !p.ECE {
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
	s.alpha = (1-dcqcnG)*s.alpha + dcqcnG*seen
	s.cnpSeen = false
	s.probe.Alpha(s.eng.Now(), s.alpha, s.sent)
}

// increase runs the periodic rate recovery: hyperbolic toward the
// target, then additive growth of the target.
func (s *DCQCNSender) increase() {
	s.steps++
	if s.steps > dcqcnFastRecoverySteps {
		s.rt += float64(dcqcnAI)
		if max := float64(s.cfg.StartRate); s.rt > max {
			s.rt = max
		}
	}
	s.rc = (s.rt + s.rc) / 2
}

// DCQCNReceiver terminates a DCQCN flow: it counts delivered bytes and
// emits at most one CNP per dcqcnCNPInterval (the NIC behaviour DCQCN
// specifies) when it sees CE-marked packets.
type DCQCNReceiver struct {
	eng     *sim.Engine
	host    *netsim.Host
	flow    pkt.FlowID
	src     pkt.NodeID
	service int

	lastCNP   time.Duration
	sentCNP   bool
	rxBytes   int64
	nextPktID uint64
}

// NewDCQCNReceiver attaches a receiver for flow f at dst.
func NewDCQCNReceiver(eng *sim.Engine, dst *netsim.Host, f pkt.FlowID, src pkt.NodeID, service int) *DCQCNReceiver {
	r := &DCQCNReceiver{
		eng:     eng,
		host:    dst,
		flow:    f,
		src:     src,
		service: service,
	}
	dst.Attach(f, netsim.HandlerFunc(r.handleData))
	return r
}

// RxBytes returns the delivered bytes.
func (r *DCQCNReceiver) RxBytes() int64 { return r.rxBytes }

func (r *DCQCNReceiver) handleData(p *pkt.Packet) {
	defer pkt.Release(p)
	if p.IsAck {
		return
	}
	r.rxBytes += int64(p.Payload)
	if !p.CE {
		return
	}
	now := r.eng.Now()
	if r.sentCNP && now-r.lastCNP < dcqcnCNPInterval {
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
