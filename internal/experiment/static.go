package experiment

import (
	"fmt"
	"time"

	"pmsb/internal/core"
	"pmsb/internal/ecn"
	"pmsb/internal/sched"
	"pmsb/internal/sim"
	"pmsb/internal/topo"
	"pmsb/internal/transport"
	"pmsb/internal/units"
)

func staticSpecs() []Spec {
	return []Spec{
		{ID: "fig8", Title: "PMSB weighted fair sharing, DWRR, 12 pkts, flows 1:4", Run: runFig8},
		{ID: "fig8-wrr", Title: "PMSB weighted fair sharing, fig8's setup on WRR", Run: runFig8WRR},
		{ID: "fig9", Title: "RTT distribution: PMSB vs PMSB(e) vs MQ-ECN vs TCN vs per-queue standard", Run: runFig9},
		{ID: "fig10", Title: "PMSB weighted fair sharing under heavy traffic, flows 1:100", Run: runFig10},
		{ID: "fig11", Title: "PMSB buffer peak: enqueue vs dequeue marking", Run: runFig11},
		{ID: "fig12", Title: "PMSB(e) buffer peak: enqueue vs dequeue marking", Run: runFig12},
	}
}

// fairLo and fairHi bound PMSB's weighted fair share in fig8, fig8-wrr
// and fig10. Quick and full runs read 0.50; PMSB without selective
// blindness (plain per-port marking at K=12) reads 0.39 on fig8 and
// 0.45 on fig8-wrr at quick seed 1, so the band must exclude 0.45.
const fairLo, fairHi = 0.47, 0.53

// pmsbFairness runs the paper's Section VI-A.1 weighted-fair-sharing
// experiment: two equal queues drained by newSched (DWRR in the
// paper), PMSB with a 12-packet port threshold, 1 flow in queue 1 vs
// q2Flows in queue 2.
func pmsbFairness(id, title string, opt Options, q2Flows int, newSched func(*sim.Engine, []float64) sched.Scheduler) (*Result, error) {
	if opt.Quick && q2Flows > 30 {
		q2Flows = 30 // preserve the heavy-traffic character, cut runtime
	}
	r, err := runStatic(fairnessConfig(opt, q2Flows, newSched))
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:      id,
		Title:   title,
		Headers: []string{"queue", "flows", "throughput_gbps"},
	}
	q1, q2 := r.queueRate(0), r.queueRate(1)
	res.AddRow("1", "1", gbps(q1))
	res.AddRow("2", itoa(q2Flows), gbps(q2))
	res.within("PMSB holds queue 1 at its weighted fair share", "0.50", "%.2f", float64(q1)/float64(q1+q2), fairLo, fairHi)
	res.atLeast("PMSB keeps the 10 Gbps link full", "10 Gbps", "%.2f Gbps", float64(q1+q2)/float64(units.Gbps), 9)
	return res, nil
}

// fairnessConfig is pmsbFairness's dumbbell run.
func fairnessConfig(opt Options, q2Flows int, newSched func(*sim.Engine, []float64) sched.Scheduler) staticConfig {
	return staticConfig{
		opt: opt,
		profile: topo.PortProfile{
			Weights:      topo.EqualWeights(2),
			NewSchedWith: newSched,
			NewMarker:    func() ecn.Marker { return &core.PMSB{PortK: units.Packets(12), Obs: opt.obsFor(0)} },
		},
		groups: []flowGroup{
			{service: 0, count: 1},
			{service: 1, count: q2Flows},
		},
	}
}

func runFig8(opt Options) (*Result, error) {
	return pmsbFairness("fig8", "PMSB fair sharing: DWRR, port K=12 pkts, flows 1:4", opt, 4, topo.DWRRSched)
}

// runFig8WRR runs fig8 on WRR, which DESIGN.md section 1 lists among
// the schedulers the paper evaluates PMSB on: port-level marking must
// hold the fair share whatever discipline drains the queues.
func runFig8WRR(opt Options) (*Result, error) {
	return pmsbFairness("fig8-wrr", "PMSB fair sharing: WRR, port K=12 pkts, flows 1:4", opt, 4, topo.WRRSched)
}

func runFig10(opt Options) (*Result, error) {
	return pmsbFairness("fig10", "PMSB fair sharing under heavy traffic: flows 1:100", opt, 100, topo.DWRRSched)
}

// fig9 parameters (paper Section VI-A.1): port threshold 12 packets,
// PMSB(e) RTT threshold 40us, TCN sojourn threshold 39us.
func runFig9(opt Options) (*Result, error) {
	portK := units.Packets(12)
	res := &Result{
		ID:      "fig9",
		Title:   "RTT of queue-2 flows (DWRR, 2 queues, flows 1:4)",
		Headers: []string{"scheme", "avg_rtt_us", "p99_rtt_us"},
	}

	type scheme struct {
		name   string
		marker topo.MarkerFactory
		filter func() transport.Filter
	}
	schemes := []scheme{
		{name: "pmsb", marker: func() ecn.Marker { return &core.PMSB{PortK: portK, Obs: opt.obsFor(0)} }},
		{
			name:   "pmsb(e)",
			marker: func() ecn.Marker { return &ecn.PerPort{K: portK} },
			filter: func() transport.Filter { return &core.PMSBe{RTTThreshold: 40 * time.Microsecond} },
		},
		{name: "mq-ecn", marker: func() ecn.Marker { return mqecnFor(units.Packets(16), motiveRate, ecn.AtEnqueue) }},
		{name: "tcn", marker: func() ecn.Marker { return &ecn.TCN{Threshold: 39 * time.Microsecond} }},
		{name: "per-queue-std", marker: func() ecn.Marker { return &ecn.PerQueueStandard{K: units.Packets(16)} }},
	}

	results := make(map[string][2]float64)
	for _, sc := range schemes {
		r, err := runStatic(staticConfig{
			opt: opt,
			profile: topo.PortProfile{
				Weights:      topo.EqualWeights(2),
				NewSchedWith: topo.DWRRSched,
				NewMarker:    sc.marker,
			},
			groups: []flowGroup{
				{service: 0, count: 1},
				{service: 1, count: 4, filter: sc.filter, recordRTT: true},
			},
		})
		if err != nil {
			return nil, err
		}
		s := r.groupRTT(1)
		results[sc.name] = [2]float64{s.Mean(), s.Percentile(99)}
		res.AddRow(sc.name, usec(s.Mean()), usec(s.Percentile(99)))
		res.AddSeries(cdfSeries(s, "rtt-cdf-"+sc.name))
	}
	std := results["per-queue-std"]
	for _, c := range []struct{ scheme, paperAvg, paperP99 string }{
		{"pmsb", "63.2% below", "62.6% below"},
		{"pmsb(e)", "55.8% below", "55.5% below"},
	} {
		got := results[c.scheme]
		res.below(c.scheme+" avg RTT is below per-queue standard's", c.paperAvg, got[0], std[0])
		res.below(c.scheme+" p99 RTT is below per-queue standard's", c.paperP99, got[1], std[1])
	}
	return res, nil
}

// peakPortK is the port threshold of fig11 and fig12, in packets.
const peakPortK = 12

// pmsbPeaks runs the Section VI-A.2 early-notification experiment for
// one scheme pair (enqueue vs dequeue marking) at port threshold
// peakPortK.
func pmsbPeaks(id, title string, opt Options, mk func(point ecn.Point) ecn.Marker, filter func() transport.Filter) (*Result, error) {
	res := &Result{
		ID:      id,
		Title:   title,
		Headers: []string{"mark_point", "peak_pkts", "steady_mean_pkts"},
	}
	peaks := make(map[string]float64)
	for _, point := range []ecn.Point{ecn.AtEnqueue, ecn.AtDequeue} {
		point := point
		r, err := runStatic(staticConfig{
			opt: opt,
			profile: topo.PortProfile{
				Weights:   topo.EqualWeights(1),
				NewSched:  topo.FIFOFactory(),
				NewMarker: func() ecn.Marker { return mk(point) },
			},
			groups:     []flowGroup{{service: 0, count: 4, filter: filter}},
			initWindow: 16,
		})
		if err != nil {
			return nil, err
		}
		peaks[point.String()] = r.trace.Max()
		steady := r.trace.MeanAfter(r.cfg.warmup)
		res.AddRow(point.String(), ftoa(r.trace.Max()), ftoa(steady))
		// One queue holds the whole port threshold (Eq. 6 with a single
		// weight), so DCTCP settles its occupancy there.
		res.within(point.String()+" marking: the lone queue settles at the port threshold", fmt.Sprintf("%d pkts", peakPortK),
			"%.1f pkts", steady, 0.75*peakPortK, 1.25*peakPortK)
		res.AddSeries(traceSeries(&r.trace, "occupancy-"+point.String(), 400))
	}
	res.below("dequeue marking lowers the buffer peak below enqueue marking's", "~20% below", peaks["dequeue"], peaks["enqueue"])
	return res, nil
}

func runFig11(opt Options) (*Result, error) {
	portK := units.Packets(peakPortK)
	return pmsbPeaks("fig11", "PMSB buffer occupancy peak: enqueue vs dequeue (4 flows, port K=12 pkts)",
		opt,
		func(point ecn.Point) ecn.Marker { return &core.PMSB{PortK: portK, MarkPoint: point} },
		nil)
}

func runFig12(opt Options) (*Result, error) {
	portK := units.Packets(peakPortK)
	// PMSB(e): per-port switch marking plus the end-host RTT filter.
	// The paper sets the RTT threshold to 14.4us (the drain time of the
	// 12-packet port threshold): in this single-queue experiment every
	// genuine congestion mark arrives with an RTT above it, so the
	// filter passes congestion signals through while the early-
	// notification comparison runs.
	filter := func() transport.Filter {
		return &core.PMSBe{RTTThreshold: units.Serialization(portK, motiveRate)}
	}
	return pmsbPeaks("fig12", "PMSB(e) buffer occupancy peak: enqueue vs dequeue (4 flows, port K=12 pkts)",
		opt,
		func(point ecn.Point) ecn.Marker { return &ecn.PerPort{K: portK, MarkPoint: point} },
		filter)
}
