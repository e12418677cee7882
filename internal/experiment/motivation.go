package experiment

import (
	"time"

	"pmsb/internal/ecn"
	"pmsb/internal/topo"
	"pmsb/internal/units"
)

// Shared parameters of the Section II motivation experiments. The 2us
// per-link delay yields a ~10.5us base RTT, consistent with the paper's
// threshold choices (port K = 12 pkts ~ C x RTT x lambda at 10 Gbps).
const (
	motiveRate  = 10 * units.Gbps
	motiveDelay = 2 * time.Microsecond
)

func motivationSpecs() []Spec {
	return []Spec{
		{ID: "fig1", Title: "Per-queue marking, standard threshold: RTT vs number of queues", Run: runFig1},
		{ID: "fig2", Title: "Per-queue marking, fractional threshold: throughput loss", Run: runFig2},
		{ID: "fig3", Title: "Per-port marking violates weighted fair sharing (1 vs 8 flows)", Run: runFig3},
		{ID: "fig4", Title: "DCTCP enqueue vs dequeue marking: slow-start buffer peak", Run: runFig4},
		{ID: "fig5", Title: "TCN cannot accelerate congestion notification", Run: runFig5},
		{ID: "fig6", Title: "Per-port marking with 65-packet threshold: 1 vs 8 flows", Run: runFig6},
		{ID: "fig7", Title: "Per-port marking with 65-packet threshold: 1 vs 40 flows", Run: runFig7},
	}
}

// staticDur returns (duration, warmup) honouring Quick mode.
func staticDur(opt Options) (time.Duration, time.Duration) {
	if opt.Quick {
		return 40 * time.Millisecond, 15 * time.Millisecond
	}
	return 120 * time.Millisecond, 40 * time.Millisecond
}

// runFig1: 8 flows spread evenly over 1..8 queues, per-queue standard
// threshold of 16 packets each. More active queues => more total buffer
// => higher RTT.
func runFig1(opt Options) (*Result, error) {
	res := &Result{
		ID:      "fig1",
		Title:   "RTT vs active queues (per-queue standard threshold, 16 pkts/queue)",
		Headers: []string{"queues", "avg_rtt_us", "p99_rtt_us"},
	}
	var lastAvg, firstAvg float64
	for nq := 1; nq <= 8; nq++ {
		groups := make([]flowGroup, nq)
		for q := range groups {
			groups[q] = flowGroup{service: q, count: 8 / nq, recordRTT: true}
		}
		// Distribute the remainder when 8 is not divisible by nq.
		for i := 0; i < 8%nq; i++ {
			groups[i].count++
		}
		r, err := runStatic(staticConfig{
			opt: opt,
			profile: topo.PortProfile{
				Weights:   topo.EqualWeights(nq),
				NewSched:  topo.WFQFactory(),
				NewMarker: func() ecn.Marker { return &ecn.PerQueueStandard{K: units.Packets(16)} },
			},
			groups: groups,
		})
		if err != nil {
			return nil, err
		}
		s := r.allRTT()
		res.AddRow(itoa(nq), usec(s.Mean()), usec(s.Percentile(99)))
		if nq == 1 {
			firstAvg = s.Mean()
		}
		lastAvg = s.Mean()
	}
	res.AddNote("avg RTT grows %.1fx from 1 queue to 8 queues (paper: RTT increases rapidly with queues)", lastAvg/firstAvg)
	return res, nil
}

// runFig2: a single active queue, per-queue threshold 2 vs 16 packets.
// The fractional threshold (Eq. 2: 2 pkts, i.e. 16 split over 8 queues)
// makes the queue underflow and loses throughput.
//
// Substitution note: the paper starts one flow. In a packet-level model
// with per-host NICs at the same rate as the bottleneck, a lone flow's
// standing queue sits in its own NIC (the NIC serializes at exactly the
// drain rate), so the switch queue never builds. Two senders converging
// on the bottleneck create the switch-queue/ECN feedback loop the
// figure is actually about; the claim under test (small thresholds
// underflow, standard thresholds keep the link full) is unchanged.
func runFig2(opt Options) (*Result, error) {
	res := &Result{
		ID:      "fig2",
		Title:   "Single-queue throughput vs per-queue threshold",
		Headers: []string{"threshold_pkts", "throughput_gbps"},
	}
	// A 10us per-link delay gives a ~43us RTT whose DCTCP sawtooth
	// amplitude exceeds a 2-packet threshold (underflow) but not a
	// 16-packet one — the regime Figure 2 demonstrates.
	const fig2Delay = 10 * time.Microsecond
	rates := make(map[int]units.Rate)
	for _, row := range []struct {
		k      int
		marker topo.MarkerFactory
	}{
		// Eq. 2's fractional threshold: the standard 16 packets split
		// over 8 equal-weight queues is 2 packets per queue.
		{2, func() ecn.Marker { return &ecn.PerQueueFractional{PortK: units.Packets(16)} }},
		{16, func() ecn.Marker { return &ecn.PerQueueStandard{K: units.Packets(16)} }},
	} {
		k := row.k
		r, err := runStatic(staticConfig{
			opt: opt,
			profile: topo.PortProfile{
				Weights:   topo.EqualWeights(8),
				NewSched:  topo.WFQFactory(),
				NewMarker: row.marker,
			},
			accessRate: motiveRate, bottleneckRate: motiveRate, delay: fig2Delay,
			groups: []flowGroup{{service: 0, count: 2}},
		})
		if err != nil {
			return nil, err
		}
		rates[k] = r.totalRate()
		res.AddRow(itoa(k), gbps(rates[k]))
	}
	loss := 1 - float64(rates[2])/float64(rates[16])
	res.AddNote("fractional threshold (2 pkts) loses %.1f%% throughput vs standard (paper: ~6%%)", loss*100)
	return res, nil
}

// perPortFairness runs the 2-queue per-port marking experiment with the
// given port threshold and flow split, reporting per-queue throughput.
func perPortFairness(id, title string, opt Options, portK, q2Flows int) (*Result, error) {
	r, err := runStatic(staticConfig{
		opt: opt,
		profile: topo.PortProfile{
			Weights:   topo.EqualWeights(2),
			NewSched:  topo.WFQFactory(),
			NewMarker: func() ecn.Marker { return &ecn.PerPort{K: units.Packets(portK)} },
		},
		groups: []flowGroup{
			{service: 0, count: 1},
			{service: 1, count: q2Flows},
		},
	})
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
	share := float64(q1) / float64(q1+q2)
	res.AddNote("queue 1 share = %.2f (weighted fair sharing wants 0.50)", share)
	res.AddNote("port mark fraction = %.3f", r.markFraction())
	return res, nil
}

func runFig3(opt Options) (*Result, error) {
	return perPortFairness("fig3", "Per-port marking, K=16 pkts, queues 1:1, flows 1:8", opt, 16, 8)
}

func runFig6(opt Options) (*Result, error) {
	return perPortFairness("fig6", "Per-port marking, K=65 pkts, flows 1:8 (fairness restored)", opt, 65, 8)
}

func runFig7(opt Options) (*Result, error) {
	return perPortFairness("fig7", "Per-port marking, K=65 pkts, flows 1:40 (fairness violated again)", opt, 65, 40)
}

// markPointPeaks runs the 4-flow single-queue 1 Gbps experiment with the
// given markers and reports the slow-start buffer peak and steady-state
// occupancy for each.
func markPointPeaks(id, title string, opt Options, markers map[string]func() ecn.Marker, order []string) (*Result, error) {
	rate := 1 * units.Gbps
	res := &Result{
		ID:      id,
		Title:   title,
		Headers: []string{"scheme", "peak_pkts", "steady_mean_pkts"},
	}
	peaks := make(map[string]float64)
	for _, name := range order {
		mk := markers[name]
		r, err := runStatic(staticConfig{
			opt: opt,
			profile: topo.PortProfile{
				Weights:   topo.EqualWeights(1),
				NewSched:  topo.FIFOFactory(),
				NewMarker: mk,
			},
			accessRate: rate, bottleneckRate: rate, delay: motiveDelay,
			groups:     []flowGroup{{service: 0, count: 4}},
			initWindow: 16,
		})
		if err != nil {
			return nil, err
		}
		peak := r.trace.Max()
		peaks[name] = peak
		res.AddRow(name, ftoa(peak), ftoa(r.trace.MeanAfter(r.cfg.warmup)))
		res.AddSeries(traceSeries(&r.trace, "occupancy-"+name, 400))
	}
	return res, nil
}

// runFig4: DCTCP (per-queue threshold 16 pkts) marking at enqueue vs
// dequeue. Dequeue marking tells senders earlier, cutting the slow-start
// peak by ~25% in the paper.
func runFig4(opt Options) (*Result, error) {
	k := units.Packets(16)
	res, err := markPointPeaks("fig4",
		"DCTCP buffer peak: enqueue vs dequeue marking (4 flows, 1 Gbps, K=16 pkts)",
		opt,
		map[string]func() ecn.Marker{
			"dctcp-enqueue": func() ecn.Marker { return &ecn.PerQueueStandard{K: k, MarkPoint: ecn.AtEnqueue} },
			"dctcp-dequeue": func() ecn.Marker { return &ecn.PerQueueStandard{K: k, MarkPoint: ecn.AtDequeue} },
		},
		[]string{"dctcp-enqueue", "dctcp-dequeue"})
	if err != nil {
		return nil, err
	}
	addPeakReduction(res, "dctcp-enqueue", "dctcp-dequeue", "paper: dequeue marking cuts the peak ~25%")
	return res, nil
}

// runFig5: the same scenario under TCN. Its duration-based signal cannot
// arrive earlier, so the peak stays near the enqueue-marking level.
func runFig5(opt Options) (*Result, error) {
	rate := 1 * units.Gbps
	tcnT := ecn.TCNThreshold(units.Packets(16), rate)
	res, err := markPointPeaks("fig5",
		"TCN buffer peak (4 flows, 1 Gbps, sojourn threshold = drain of 16 pkts)",
		opt,
		map[string]func() ecn.Marker{
			"tcn": func() ecn.Marker { return &ecn.TCN{Threshold: tcnT} },
		},
		[]string{"tcn"})
	if err != nil {
		return nil, err
	}
	res.AddNote("TCN threshold = %v (drain time of 16 pkts at 1 Gbps)", tcnT)
	res.AddNote("paper: TCN's peak stays high — no early congestion notification")
	return res, nil
}

// addPeakReduction appends a note comparing two schemes' peaks.
func addPeakReduction(res *Result, base, improved, paperNote string) {
	var basePeak, impPeak float64
	for _, row := range res.Rows {
		if row[0] == base {
			basePeak = atof(row[1])
		}
		if row[0] == improved {
			impPeak = atof(row[1])
		}
	}
	if basePeak > 0 {
		res.AddNote("%s peak is %.1f%% below %s (%s)", improved, (1-impPeak/basePeak)*100, base, paperNote)
	}
}
