package experiment

import (
	"fmt"
	"strconv"
	"time"

	"pmsb/internal/ecn"
	"pmsb/internal/netsim"
	"pmsb/internal/pkt"
	"pmsb/internal/stats"
	"pmsb/internal/topo"
	"pmsb/internal/transport"
	"pmsb/internal/units"
)

// flowGroup describes a set of long-lived flows sharing a service class
// in a static-flow experiment.
type flowGroup struct {
	// service selects the switch queue.
	service int
	// count is the number of flows (each on its own sender host).
	count int
	// rateLimit caps each flow's application rate (0 = unlimited).
	rateLimit units.Rate
	// start is the flows' start time.
	start time.Duration
	// filter, when non-nil, installs a per-flow ECN filter (PMSB(e)).
	filter func() transport.Filter
	// recordRTT keeps every RTT sample of the group's flows.
	recordRTT bool
}

// staticConfig describes a dumbbell static-flow experiment.
type staticConfig struct {
	// bottleneck port profile (scheduler/marker/queues).
	profile topo.PortProfile
	// accessRate/bottleneckRate/delay as in topo.DumbbellConfig; all
	// zero means the Section II links (motiveRate, motiveDelay).
	accessRate, bottleneckRate units.Rate
	delay                      time.Duration
	// groups of long-lived flows.
	groups []flowGroup
	// dur is the simulated duration; warmup is excluded from averages.
	// Both zero means staticDur's.
	dur, warmup time.Duration
	// initWindow overrides the DCTCP initial window (0 = default).
	initWindow int
	// opt carries the experiment options to runPacket.
	opt Options
}

// staticBin is the bin width of the per-queue throughput series.
const staticBin = time.Millisecond

// staticRun is the finished experiment with its measurements.
type staticRun struct {
	bottleneck *netsim.Port // the switch->receiver port under test
	cfg        staticConfig
	series     []*stats.TimeSeries // per-queue dequeued wire bytes
	trace      stats.Trace         // port occupancy in packets over time
	groups     [][]*transport.Flow // flows per group
	txMarked   int64               // transmitted packets carrying CE
}

// runStatic runs the flow groups over a dumbbell through runPacket — one
// sender host per flow, taps on the bottleneck port — to cfg.dur and
// returns the measurements.
func runStatic(cfg staticConfig) (*staticRun, error) {
	if cfg.accessRate == 0 {
		cfg.accessRate, cfg.bottleneckRate, cfg.delay = motiveRate, motiveRate, motiveDelay
	}
	if cfg.dur == 0 {
		cfg.dur, cfg.warmup = staticDur(cfg.opt)
	}
	senders := 0
	for _, g := range cfg.groups {
		senders += g.count
	}
	r := &staticRun{cfg: cfg, series: make([]*stats.TimeSeries, len(cfg.profile.Weights))}
	for q := range r.series {
		r.series[q] = stats.NewTimeSeries(staticBin)
	}
	_, err := cfg.opt.runPacket(dumbbellWiring(topo.DumbbellConfig{
		Senders:        senders,
		AccessRate:     cfg.accessRate,
		BottleneckRate: cfg.bottleneckRate,
		Delay:          cfg.delay,
		Bottleneck:     cfg.profile,
	}), func(fab *topo.Fabric) time.Duration {
		eng, port := fab.Eng, fab.Switches[0].Port(0)
		r.bottleneck = port
		port.OnDequeue(func(p *pkt.Packet, q int) {
			if p.CE {
				r.txMarked++
			}
			r.series[q].Add(eng.Now(), float64(p.Size))
			r.trace.Record(eng.Now(), float64(port.PortPackets()))
		})
		port.OnEnqueue(func(p *pkt.Packet, q int) {
			r.trace.Record(eng.Now(), float64(port.PortPackets()))
		})

		var fid transport.FlowIDGen
		host := 1 // fab.Host(0) is the receiver
		for _, g := range cfg.groups {
			flows := make([]*transport.Flow, 0, g.count)
			for i := 0; i < g.count; i++ {
				src := fab.Host(host)
				tc := transport.Config{RateLimit: g.rateLimit, InitWindow: cfg.initWindow,
					Obs: cfg.opt.busFor(fab, src)}
				if g.filter != nil {
					tc.Filter = g.filter()
				}
				f := transport.NewFlow(eng, src, fab.Host(0), fid.Next(), g.service, 0, tc, nil)
				if g.recordRTT {
					f.Sender.RecordRTT()
				}
				f.Sender.StartAt(g.start)
				flows = append(flows, f)
				host++
			}
			r.groups = append(r.groups, flows)
		}
		return cfg.dur
	})
	return r, err
}

// queueRate returns queue q's mean dequeue rate between warmup and dur.
func (r *staticRun) queueRate(q int) units.Rate {
	from := int(r.cfg.warmup / staticBin)
	to := int(r.cfg.dur / staticBin)
	return r.series[q].MeanRate(from, to)
}

// totalRate returns the aggregate bottleneck rate after warmup.
func (r *staticRun) totalRate() units.Rate {
	var sum units.Rate
	for q := range r.series {
		sum += r.queueRate(q)
	}
	return sum
}

// groupRTT aggregates RTT samples of group g.
func (r *staticRun) groupRTT(g int) *stats.Summary { return rttOf(r.groups[g : g+1]) }

// allRTT aggregates RTT samples across every group.
func (r *staticRun) allRTT() *stats.Summary { return rttOf(r.groups) }

func rttOf(groups [][]*transport.Flow) *stats.Summary {
	var s stats.Summary
	for _, g := range groups {
		for _, f := range g {
			for _, rtt := range f.Sender.RTTSamples() {
				s.Add(rtt.Seconds())
			}
		}
	}
	return &s
}

// itoa/ftoa/atof are terse numeric formatting helpers for result rows.
func itoa(v int) string { return strconv.Itoa(v) }

func ftoa(v float64) string { return strconv.FormatFloat(v, 'f', 1, 64) }

func atof(s string) float64 {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0
	}
	return v
}

// gbps formats a rate with two decimals in Gbps.
func gbps(r units.Rate) string {
	return fmt.Sprintf("%.2f", float64(r)/float64(units.Gbps))
}

// usec formats seconds as microseconds with one decimal.
func usec(seconds float64) string {
	return fmt.Sprintf("%.1f", seconds*1e6)
}

// msec formats seconds as milliseconds with three decimals.
func msec(seconds float64) string {
	return fmt.Sprintf("%.3f", seconds*1e3)
}

// mqecnFor builds an MQ-ECN marker whose standard (fallback) threshold
// equals kBytes on a link of rate c: RTT x lambda is expressed as the
// drain time of kBytes (the identity the paper itself uses: 65 packets
// at 10 Gbps ~ TCN's 78.2us).
func mqecnFor(kBytes int, c units.Rate, point ecn.Point) *ecn.MQECN {
	return &ecn.MQECN{RTT: units.Serialization(kBytes, c), Lambda: 1, MarkPoint: point}
}

// traceSeries converts an occupancy trace into a plot-ready Series,
// decimating to at most maxPoints buckets while preserving each
// bucket's maximum (so slow-start peaks survive).
func traceSeries(tr *stats.Trace, name string, maxPoints int) Series {
	pts := tr.Points()
	s := Series{Name: name, XUnit: "ms", YUnit: "pkts"}
	if len(pts) == 0 {
		return s
	}
	if maxPoints < 1 {
		maxPoints = 1
	}
	stride := (len(pts) + maxPoints - 1) / maxPoints
	for i := 0; i < len(pts); i += stride {
		end := i + stride
		if end > len(pts) {
			end = len(pts)
		}
		maxV := pts[i].V
		maxT := pts[i].T
		for _, p := range pts[i:end] {
			if p.V > maxV {
				maxV, maxT = p.V, p.T
			}
		}
		s.X = append(s.X, float64(maxT)/1e6) // ns -> ms
		s.Y = append(s.Y, maxV)
	}
	return s
}

// cdfSeries renders a Summary's distribution as a CDF plot line
// (x = value in microseconds, y = cumulative probability) — the form
// the paper's RTT-distribution figures (1, 9) use.
func cdfSeries(s *stats.Summary, name string) Series {
	out := Series{Name: name, XUnit: "us", YUnit: "P"}
	for _, p := range s.CDF(101) {
		out.X = append(out.X, p.X*1e6)
		out.Y = append(out.Y, p.P)
	}
	return out
}

// rateSeries converts a per-queue throughput TimeSeries into a Series
// in Gbps per bin.
func rateSeries(ts *stats.TimeSeries, name string) Series {
	s := Series{Name: name, XUnit: "ms", YUnit: "gbps"}
	for i := 0; i < ts.Bins(); i++ {
		s.X = append(s.X, float64(int64(ts.BinWidth())*int64(i))/1e6)
		s.Y = append(s.Y, float64(ts.Rate(i))/1e9)
	}
	return s
}

// markFraction returns the fraction of the bottleneck's transmitted
// packets that left it carrying a CE mark: both counts are taken as
// packets leave (an enqueue-point marker's MarkedPackets also counts
// marked packets still queued at the end, so it can exceed TxPackets).
func (r *staticRun) markFraction() float64 {
	if r.bottleneck.TxPackets() == 0 {
		return 0
	}
	return float64(r.txMarked) / float64(r.bottleneck.TxPackets())
}
