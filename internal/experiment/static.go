package experiment

import (
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
	res.AddNote("queue 1 share = %.2f (PMSB preserves the 0.50 weighted fair share)", float64(q1)/float64(q1+q2))
	res.AddNote("total = %s Gbps (full 10G utilization expected)", gbps(q1+q2))
	return res, nil
}

// fairnessConfig is pmsbFairness's dumbbell run.
func fairnessConfig(opt Options, q2Flows int, newSched func(*sim.Engine, []float64) sched.Scheduler) staticConfig {
	return staticConfig{
		opt: opt,
		profile: topo.PortProfile{
			Weights:      topo.EqualWeights(2),
			NewSchedWith: newSched,
			NewMarker:    func() ecn.Marker { return &core.PMSB{PortK: units.Packets(12), Obs: opt.Obs} },
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
		{name: "pmsb", marker: func() ecn.Marker { return &core.PMSB{PortK: portK, Obs: opt.Obs} }},
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
	pmsbR := results["pmsb"]
	pmsbeR := results["pmsb(e)"]
	res.AddNote("PMSB avg/p99 RTT %.1f%%/%.1f%% below per-queue standard (paper: 63.2%%/62.6%%)",
		(1-pmsbR[0]/std[0])*100, (1-pmsbR[1]/std[1])*100)
	res.AddNote("PMSB(e) avg/p99 RTT %.1f%%/%.1f%% below per-queue standard (paper: 55.8%%/55.5%%)",
		(1-pmsbeR[0]/std[0])*100, (1-pmsbeR[1]/std[1])*100)
	return res, nil
}

// pmsbPeaks runs the Section VI-A.2 early-notification experiment for
// one scheme pair (enqueue vs dequeue marking).
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
		res.AddRow(point.String(), ftoa(r.trace.Max()), ftoa(r.trace.MeanAfter(r.cfg.warmup)))
		res.AddSeries(traceSeries(&r.trace, "occupancy-"+point.String(), 400))
	}
	res.AddNote("dequeue peak is %.1f%% below enqueue peak (paper: ~20%%)",
		(1-peaks["dequeue"]/peaks["enqueue"])*100)
	return res, nil
}

func runFig11(opt Options) (*Result, error) {
	portK := units.Packets(12)
	return pmsbPeaks("fig11", "PMSB buffer occupancy peak: enqueue vs dequeue (4 flows, port K=12 pkts)",
		opt,
		func(point ecn.Point) ecn.Marker { return &core.PMSB{PortK: portK, MarkPoint: point} },
		nil)
}

func runFig12(opt Options) (*Result, error) {
	portK := units.Packets(12)
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
