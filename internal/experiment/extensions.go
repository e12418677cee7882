package experiment

import (
	"fmt"
	"time"

	"pmsb/internal/core"
	"pmsb/internal/ecn"
	"pmsb/internal/netsim"
	"pmsb/internal/pkt"
	"pmsb/internal/sched"
	"pmsb/internal/sim"
	"pmsb/internal/stats"
	"pmsb/internal/topo"
	"pmsb/internal/transport"
	"pmsb/internal/units"
)

// extensionSpecs are experiments that go beyond the paper's figures:
// they validate claims the paper makes in prose (per-service-pool
// marking, the false-positive/false-negative trade-off) and sweep the
// design parameters the paper fixes.
func extensionSpecs() []Spec {
	specs := []Spec{
		{ID: "pool", Title: "Per-service-pool marking violates fairness across ports (Section II-B claim)", Run: runPool},
		{ID: "ablation-portk", Title: "Ablation: per-port threshold sweep (generalizes Figures 6-7)", Run: runAblationPortK},
		{ID: "ablation-filter", Title: "Ablation: PMSB filter aggressiveness (false positive vs false negative)", Run: runAblationFilter},
		incastSpec(),
	}
	specs = append(specs, weightedSpecs()...)
	specs = append(specs, analysisSpecs()...)
	return append(specs, pfcSpec())
}

// poolWiring is the pool experiment's switch: two independent 10G
// output ports A and B drawing on one shared buffer pool, marked per
// pool or per port at 16 packets, plus nine sender hosts. The Fabric
// lists Hosts as receiver A, receiver B, senders; the switch's ports 0
// and 1 are A and B. Serial only.
func poolWiring(perPool bool) wiring {
	return wiring{serial: func(eng *sim.Engine) *topo.Fabric {
		sw := netsim.NewSwitch(eng, 1000)
		pool := &ecn.Pool{}
		k := units.Packets(16)

		mkMarker := func() ecn.Marker {
			if perPool {
				return &ecn.PerPool{K: k, Shared: pool}
			}
			return &ecn.PerPort{K: k}
		}
		mkHost := func(id pkt.NodeID) *netsim.Host {
			h := netsim.NewHost(eng, id)
			h.AttachNIC(netsim.NewLink(eng, motiveRate, motiveDelay, sw))
			return h
		}
		hosts := []*netsim.Host{mkHost(1), mkHost(2)}
		for _, recv := range hosts {
			sw.AddPort(netsim.NewPort(netsim.NewLink(eng, motiveRate, motiveDelay, recv),
				netsim.PortConfig{Sched: sched.NewFIFO(), Marker: mkMarker(), Pool: pool}))
		}
		ports := map[pkt.NodeID]int{1: 0, 2: 1}
		for i := 0; i < 9; i++ {
			h := mkHost(pkt.NodeID(10 + i))
			ports[h.NodeID()] = sw.AddPort(netsim.NewPort(netsim.NewLink(eng, motiveRate, motiveDelay, h),
				netsim.PortConfig{Sched: sched.NewFIFO()}))
			hosts = append(hosts, h)
		}
		sw.SetRoute(func(p *pkt.Packet) int {
			if idx, ok := ports[p.Dst]; ok {
				return idx
			}
			return -1
		})
		return &topo.Fabric{Eng: eng, Hosts: hosts, Switches: []*netsim.Switch{sw}}
	}}
}

// runPool validates the paper's prose claim: "We believe per service
// pool will also violate weighted fair sharing, because queues belonging
// to different ports may interfere with each other."
//
// Port A carries 1 flow (never congested on its own), port B carries 8
// flows. Under per-pool marking the port-A flow gets marked because
// port B filled the pool; under per-port marking it does not.
func runPool(opt Options) (*Result, error) {
	dur, warmup := staticDur(opt)
	res := &Result{
		ID:      "pool",
		Title:   "Cross-port interference under shared-pool marking",
		Headers: []string{"scheme", "portA_gbps", "portB_gbps", "portA_marks"},
	}

	var portA [2]float64 // port A throughput, Gbps
	var marks [2]int64   // port A marked packets
	for i, scheme := range []string{"per-port", "per-pool"} {
		seriesA := stats.NewTimeSeries(time.Millisecond)
		seriesB := stats.NewTimeSeries(time.Millisecond)
		fab, err := opt.runPacket(poolWiring(i == 1), func(fab *topo.Fabric) time.Duration {
			eng, sw := fab.Eng, fab.Switches[0]
			sw.Port(0).OnDequeue(func(p *pkt.Packet, _ int) { seriesA.Add(eng.Now(), float64(p.Size)) })
			sw.Port(1).OnDequeue(func(p *pkt.Packet, _ int) { seriesB.Add(eng.Now(), float64(p.Size)) })

			var fid transport.FlowIDGen
			// 1 flow to receiver A, 8 flows to receiver B.
			for j, src := range fab.Hosts[2:] {
				recv := fab.Host(1)
				if j == 0 {
					recv = fab.Host(0)
				}
				f := transport.NewFlow(eng, src, recv, fid.Next(), 0, 0,
					transport.Config{Obs: opt.busFor(fab, src)}, nil)
				f.Sender.Start()
			}
			return dur
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", scheme, err)
		}
		from, to := int(warmup/time.Millisecond), int(dur/time.Millisecond)
		portA[i] = float64(seriesA.MeanRate(from, to)) / float64(units.Gbps)
		marks[i] = fab.Switches[0].Port(0).MarkedPackets()
		res.AddRow(scheme, fmt.Sprintf("%.2f", portA[i]),
			fmt.Sprintf("%.2f", float64(seriesB.MeanRate(from, to))/float64(units.Gbps)), fmt.Sprintf("%d", marks[i]))
	}
	res.atLeast("per-port marking leaves the un-congested port A at line rate", "10 Gbps", "%.2f Gbps", portA[0], 9)
	res.verdict("per-port marking never marks port A", "0", fmt.Sprintf("%d", marks[0]), "= 0", marks[0] == 0)
	res.verdict("per-pool marking throttles port A: queues of different ports interfere", "violates fair sharing",
		fmt.Sprintf("%.2f Gbps (%d marks)", portA[1], marks[1]), fmt.Sprintf("< %.2f Gbps (0.8x per-port's)", 0.8*portA[0]),
		portA[1] < 0.8*portA[0])
	return res, nil
}

// runAblationPortK sweeps the per-port threshold with the 1:8 flow split
// of Figure 3, exposing the trade-off the paper derives from Figures 6
// and 7: raising the threshold restores fairness (fewer victim marks)
// but inflates latency.
func runAblationPortK(opt Options) (*Result, error) {
	res := &Result{
		ID:      "ablation-portk",
		Title:   "Per-port marking: threshold vs fairness vs latency (1:8 flows)",
		Headers: []string{"portK_pkts", "q1_share", "avg_rtt_us", "mark_fraction"},
	}
	var share, rtt []float64
	for i, k := range []int{8, 16, 32, 65, 128} {
		r, err := runStatic(staticConfig{
			opt:     opt,
			profile: defaultTwoQueueProfile(func() ecn.Marker { return &ecn.PerPort{K: units.Packets(k)} }),
			groups: []flowGroup{
				{service: 0, count: 1, recordRTT: true},
				{service: 1, count: 8, recordRTT: true},
			},
		})
		if err != nil {
			return nil, err
		}
		q1, q2 := r.queueRate(0), r.queueRate(1)
		share = append(share, float64(q1)/float64(q1+q2))
		rtt = append(rtt, r.allRTT().Mean())
		res.AddRow(itoa(k), fmt.Sprintf("%.3f", share[i]), usec(rtt[i]), fmt.Sprintf("%.3f", r.markFraction()))
	}
	// The paper's Figure 6/7 trade-off: a larger K buys fairness with latency.
	last := len(share) - 1
	res.below("queue 1's share at K=8 is below its share at K=128", "fairness improves with K", share[0], share[last])
	res.below("avg RTT at K=8 is below avg RTT at K=128", "latency grows with K", rtt[0], rtt[last])
	return res, nil
}

// runAblationFilter sweeps PMSB's per-queue filter scale with the 1:8
// split: scale 0.25 is aggressive (false positives hurt fairness less
// than expected per the paper's observation), large scales are
// conservative (false negatives let the congested queue balloon).
func runAblationFilter(opt Options) (*Result, error) {
	res := &Result{
		ID:      "ablation-filter",
		Title:   "PMSB filter scale vs fairness vs congested-queue RTT (1:8 flows, port K=16)",
		Headers: []string{"filter_scale", "q1_share", "q2_p99_rtt_us", "mark_fraction"},
	}
	p99 := map[float64]float64{} // the congested queue's p99 RTT by scale
	for _, scale := range []float64{0.25, 0.5, 1.0, 2.0, 4.0} {
		scale := scale
		r, err := runStatic(staticConfig{
			opt: opt,
			profile: defaultTwoQueueProfile(func() ecn.Marker {
				return &core.PMSB{PortK: units.Packets(16), ThresholdScale: scale}
			}),
			groups: []flowGroup{
				{service: 0, count: 1},
				{service: 1, count: 8, recordRTT: true},
			},
		})
		if err != nil {
			return nil, err
		}
		q1, q2 := r.queueRate(0), r.queueRate(1)
		share := float64(q1) / float64(q1+q2)
		p99[scale] = r.groupRTT(1).Percentile(99)
		res.AddRow(
			fmt.Sprintf("%.2f", scale),
			fmt.Sprintf("%.3f", share),
			usec(p99[scale]),
			fmt.Sprintf("%.3f", r.markFraction()),
		)
		if scale <= 1 {
			res.within(fmt.Sprintf("an aggressive filter (scale %.2f) keeps queue 1's fair share", scale), "0.50", "%.3f", share, 0.42, 0.58)
		}
	}
	// The paper's observation: an aggressive filter trades a small
	// false-positive probability for eliminating false negatives, which
	// a conservative one lets through.
	res.below("Eq. 6's filter (scale 1) keeps the congested queue's p99 RTT below a conservative filter's (scale 4), whose false negatives let it grow",
		"-", p99[1], p99[4])
	return res, nil
}

// defaultTwoQueueProfile is the 2-queue WFQ bottleneck used by the
// ablations.
func defaultTwoQueueProfile(mk func() ecn.Marker) topo.PortProfile {
	return topo.PortProfile{
		Weights:   []float64{1, 1},
		NewSched:  func(w []float64) sched.Scheduler { return sched.NewWFQ(w) },
		NewMarker: mk,
	}
}
