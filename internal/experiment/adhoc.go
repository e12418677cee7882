package experiment

import (
	"fmt"
	"time"

	"pmsb/internal/stats"
	"pmsb/internal/topo"
	"pmsb/internal/transport"
	"pmsb/internal/units"
	"pmsb/internal/workload"
)

// Ad-hoc scenarios: the two specs pmsbsim's flow and replay subcommands
// run. They are described by the caller instead of registered under a
// figure number, and are otherwise experiments like any other — through
// runStatic / runPacket — so everything RunMany and its observers do
// for -experiment reaches them unchanged.

// FlowConfig describes a static-flow scenario: long-lived flows, one
// sender host each, into the dumbbell's single bottleneck port.
type FlowConfig struct {
	// Title heads the result table.
	Title string
	// Services holds one entry per flow: the bottleneck queue it uses,
	// an index into Bottleneck.Weights.
	Services []int
	// Bottleneck is the bottleneck port's profile; its Weights fix the
	// queue count.
	Bottleneck topo.PortProfile
	// Filter, when non-nil, builds each flow's ECN filter (PMSB(e)).
	Filter func() transport.Filter
	// Rate is every link's rate, Delay every link's propagation delay.
	Rate  units.Rate
	Delay time.Duration
	// Dur is the simulated duration; the first two fifths are warm-up.
	Dur time.Duration
}

// FlowSpec returns the experiment "flow" running cfg's scenario: per
// queue the steady-state throughput against its weighted fair share,
// then fairness, marking, RTT and drops at the bottleneck.
func FlowSpec(cfg FlowConfig) Spec {
	return Spec{ID: "flow", Title: cfg.Title, Run: func(opt Options) (*Result, error) {
		weights := cfg.Bottleneck.Weights
		groups := make([]flowGroup, len(cfg.Services))
		for i, svc := range cfg.Services {
			groups[i] = flowGroup{service: svc, count: 1, filter: cfg.Filter, recordRTT: true}
		}
		r, err := runStatic(staticConfig{
			opt:        opt,
			profile:    cfg.Bottleneck,
			accessRate: cfg.Rate, bottleneckRate: cfg.Rate, delay: cfg.Delay,
			groups: groups,
			dur:    cfg.Dur,
			// Whole milliseconds, the throughput series' bin width.
			warmup: cfg.Dur / time.Millisecond * 2 / 5 * time.Millisecond,
		})
		if err != nil {
			return nil, err
		}

		res := &Result{ID: "flow", Title: cfg.Title, Headers: []string{"metric", "value"}}
		weightSum := 0.0
		for _, w := range weights {
			weightSum += w
		}
		rates := make([]float64, len(weights))
		for q, w := range weights {
			rates[q] = float64(r.queueRate(q)) / float64(units.Gbps)
			res.AddRow(fmt.Sprintf("q%d-gbps", q+1), fmt.Sprintf("%.2f", rates[q]))
			res.AddRow(fmt.Sprintf("q%d-fair-gbps", q+1), fmt.Sprintf("%.2f", w/weightSum*float64(cfg.Rate)/float64(units.Gbps)))
			res.AddSeries(rateSeries(r.series[q], fmt.Sprintf("queue-%d", q+1)))
		}
		rtt := r.allRTT()
		res.AddRow("total-gbps", gbps(r.totalRate()))
		res.AddRow("weighted-jain", fmt.Sprintf("%.3f", stats.WeightedJainIndex(rates, weights)))
		res.AddRow("mark-fraction", fmt.Sprintf("%.3f", r.markFraction()))
		res.AddRow("rtt-avg-us", usec(rtt.Mean()))
		res.AddRow("rtt-p99-us", usec(rtt.Percentile(99)))
		res.AddRow("drops", fmt.Sprintf("%d", r.bottleneck.DropPackets()))
		return res, nil
	}}
}

// ReplayConfig describes a trace replay on the paper's 48-host
// leaf-spine fabric (Section VI-B: 10 Gbps, DCTCP, initial window 16).
type ReplayConfig struct {
	// Title heads the result table.
	Title string
	// Flows is the trace in file order; flow i gets flow ID i+1, and its
	// service is taken modulo the port's queue count.
	Flows []workload.FlowSpec
	// Ports is the profile of every switch port.
	Ports topo.PortProfile
	// Filter, when non-nil, builds each flow's ECN filter (PMSB(e)).
	Filter func() transport.Filter
}

// ReplaySpec returns the experiment "replay" running cfg's trace to two
// seconds past its last arrival: completions and FCT statistics, plus
// the series "fct" holding each flow's FCT by trace index (0 for a flow
// that did not finish).
func ReplaySpec(cfg ReplayConfig) Spec {
	return Spec{ID: "replay", Title: cfg.Title, Run: func(opt Options) (*Result, error) {
		lsCfg := topo.LeafSpineConfig{Rate: fctRate, Ports: cfg.Ports}
		hosts, queues := topo.LeafSpinePaths(lsCfg).Hosts, len(cfg.Ports.Weights)
		if len(cfg.Flows) == 0 {
			return nil, fmt.Errorf("the trace holds no flows")
		}
		const tail = 2 * time.Second // run this long past the last arrival
		var lastStart time.Duration
		for i, spec := range cfg.Flows {
			if spec.Src < 0 || spec.Src >= hosts || spec.Dst < 0 || spec.Dst >= hosts {
				return nil, fmt.Errorf("flow %d: host index out of range for the %d-host fabric", i, hosts)
			}
			lastStart = max(lastStart, spec.Start)
		}
		// One slot per flow; zero means unfinished at the deadline.
		fcts := make([]time.Duration, len(cfg.Flows))
		_, err := opt.runPacket(leafSpineWiring(lsCfg), func(fab *topo.Fabric) time.Duration {
			opt.startFlows(fab, cfg.Flows, queues, cfg.Filter, func(i int, s *transport.Sender) { fcts[i] = s.FCT() })
			return lastStart + tail
		})
		if err != nil {
			return nil, err
		}

		m := fctMetrics{total: len(fcts)}
		perFlow := Series{Name: "fct", XUnit: "flow", YUnit: "us"}
		for i, fct := range fcts {
			if fct > 0 {
				m.add(cfg.Flows[i].Size, fct)
			}
			perFlow.X = append(perFlow.X, float64(i))
			perFlow.Y = append(perFlow.Y, float64(fct)/float64(time.Microsecond))
		}
		res := &Result{ID: "replay", Title: cfg.Title, Headers: []string{"metric", "value"}}
		res.AddRow("flows", itoa(m.total))
		res.AddRow("completed", itoa(m.completed))
		res.AddRow("fct-avg-ms", msec(m.all.Mean()))
		res.AddRow("fct-p99-ms", msec(m.all.Percentile(99)))
		if m.small.Count() > 0 {
			res.AddRow("small-flows", itoa(m.small.Count()))
			res.AddRow("small-fct-avg-ms", msec(m.small.Mean()))
			res.AddRow("small-fct-p95-ms", msec(m.small.Percentile(95)))
			res.AddRow("small-fct-p99-ms", msec(m.small.Percentile(99)))
		}
		if m.completed < m.total {
			res.AddNote("%d of %d flows unfinished %v after the last arrival", m.total-m.completed, m.total, tail)
		}
		res.AddSeries(perFlow)
		return res, nil
	}}
}
