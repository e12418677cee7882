package experiment

import (
	"fmt"
	"time"

	"pmsb/internal/core"
	"pmsb/internal/ecn"
	"pmsb/internal/topo"
	"pmsb/internal/units"
)

func schedulerSpecs() []Spec {
	return []Spec{
		{ID: "fig13", Title: "PMSB over SP+WFQ: staged flows settle at 5/2.5/2.5 Gbps", Run: runFig13},
		{ID: "fig14", Title: "PMSB over SP: staged flows settle at 5/3/2 Gbps", Run: runFig14},
		{ID: "fig15", Title: "PMSB over WFQ: staged flows settle at 5/5 Gbps", Run: runFig15},
	}
}

// stagedConfig describes a Section VI-A.3 experiment: staged flow-group
// starts over a 3-phase timeline with expected per-queue rates in the
// final phase.
type stagedConfig struct {
	id, title string
	schedF    topo.SchedFactory
	queues    int
	groups    func(phaseStarts []time.Duration) []flowGroup
	// final are the paper's final-phase per-queue rates and the band
	// each measured rate must fall in, in Gbps.
	final []rateBand
}

// rateBand is a paper rate and the band a measured rate must fall in.
type rateBand struct{ paper, lo, hi float64 }

// runStaged executes the experiment and reports per-queue throughput in
// each phase.
func runStaged(opt Options, sc stagedConfig) (*Result, error) {
	var phases []time.Duration
	var dur time.Duration
	if opt.Quick {
		phases = []time.Duration{0, 15 * time.Millisecond, 30 * time.Millisecond}
		dur = 45 * time.Millisecond
	} else {
		phases = []time.Duration{0, 40 * time.Millisecond, 80 * time.Millisecond}
		dur = 120 * time.Millisecond
	}
	r, err := runStatic(staticConfig{
		opt: opt,
		profile: topo.PortProfile{
			Weights:   topo.EqualWeights(sc.queues),
			NewSched:  sc.schedF,
			NewMarker: func() ecn.Marker { return &core.PMSB{PortK: units.Packets(12)} },
		},
		groups: sc.groups(phases),
		dur:    dur,
	})
	if err != nil {
		return nil, err
	}

	res := &Result{
		ID:      sc.id,
		Title:   sc.title,
		Headers: []string{"phase", "queue", "throughput_gbps"},
	}
	phaseEnd := append(append([]time.Duration{}, phases[1:]...), dur)
	bin := time.Millisecond
	for ph := range phases {
		// Measure the last 60% of each phase (skip convergence).
		start := phases[ph] + (phaseEnd[ph]-phases[ph])*2/5
		from, to := int(start/bin), int(phaseEnd[ph]/bin)
		for q := 0; q < sc.queues; q++ {
			rate := r.series[q].MeanRate(from, to)
			res.AddRow(itoa(ph+1), itoa(q+1), gbps(rate))
		}
	}
	// Final-phase check against the paper's expectation.
	start := phases[len(phases)-1] + (dur-phases[len(phases)-1])*2/5
	from, to := int(start/bin), int(dur/bin)
	for q, want := range sc.final {
		got := float64(r.series[q].MeanRate(from, to)) / float64(units.Gbps)
		res.within(fmt.Sprintf("final phase queue %d gets the scheduler's rate", q+1),
			fmt.Sprintf("%.1f Gbps", want.paper), "%.2f", got, want.lo, want.hi)
	}
	// The paper's figures are throughput-vs-time plots: emit them.
	for q := 0; q < sc.queues; q++ {
		res.AddSeries(rateSeries(r.series[q], fmt.Sprintf("queue-%d", q+1)))
	}
	return res, nil
}

// runFig13: SP+WFQ — queue 1 strict-high with a 5 Gbps app-limited flow,
// queues 2 and 3 share the remainder 1:1.
func runFig13(opt Options) (*Result, error) {
	return runStaged(opt, stagedConfig{
		id:     "fig13",
		title:  "PMSB over SP+WFQ (q1 strict; q2,q3 WFQ 1:1)",
		schedF: topo.SPWFQFactory(1),
		queues: 3,
		groups: func(ph []time.Duration) []flowGroup {
			return []flowGroup{
				{service: 0, count: 1, rateLimit: 5 * units.Gbps, start: ph[0]},
				{service: 1, count: 1, start: ph[1]},
				{service: 2, count: 4, start: ph[2]},
			}
		},
		final: []rateBand{{5, 4.2, 5.5}, {2.5, 1.7, 3.3}, {2.5, 1.7, 3.3}},
	})
}

// runFig14: SP — 5 Gbps into the top queue, 3 Gbps into the middle, an
// unbounded flow into the bottom; SP leaves the bottom queue 2 Gbps.
func runFig14(opt Options) (*Result, error) {
	return runStaged(opt, stagedConfig{
		id:     "fig14",
		title:  "PMSB over SP (q1 > q2 > q3)",
		schedF: topo.SPFactory(),
		queues: 3,
		groups: func(ph []time.Duration) []flowGroup {
			return []flowGroup{
				{service: 0, count: 1, rateLimit: 5 * units.Gbps, start: ph[0]},
				{service: 1, count: 1, rateLimit: 3 * units.Gbps, start: ph[1]},
				{service: 2, count: 1, start: ph[2]},
			}
		},
		final: []rateBand{{5, 4.2, 5.5}, {3, 2.2, 3.8}, {2, 1.2, 2.8}},
	})
}

// runFig15: WFQ 1:1 — one flow alone takes 10 Gbps, then shares 5/5 with
// four late flows in the other queue.
func runFig15(opt Options) (*Result, error) {
	return runStaged(opt, stagedConfig{
		id:     "fig15",
		title:  "PMSB over WFQ (2 queues, 1:1)",
		schedF: topo.WFQFactory(),
		queues: 2,
		groups: func(ph []time.Duration) []flowGroup {
			return []flowGroup{
				{service: 0, count: 1, start: ph[0]},
				{service: 1, count: 4, start: ph[1]},
			}
		},
		final: []rateBand{{5, 4, 6}, {5, 4, 6}},
	})
}
