package experiment

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"pmsb/internal/core"
	"pmsb/internal/ecn"
	"pmsb/internal/stats"
	"pmsb/internal/topo"
	"pmsb/internal/transport"
	"pmsb/internal/units"
	"pmsb/internal/workload"
)

// weightedSpecs registers two more extensions:
//
//   - ablation-rttthresh: sensitivity of PMSB(e) to its single knob,
//     the RTT accept threshold (the paper: "The main challenge is how
//     to determine a time threshold").
//   - fct-weighted: the paper's large-scale run uses equal weights;
//     this variant gives service 0 a premium weight and shows PMSB
//     preserving the differentiation per-port marking erodes.
func weightedSpecs() []Spec {
	return []Spec{
		{ID: "ablation-rttthresh", Title: "Ablation: PMSB(e) RTT threshold sensitivity (1:8 flows)", Run: runAblationRTTThresh},
		{ID: "fct-weighted", Title: "Extension: weighted services at scale — PMSB vs per-port", Run: runFCTWeighted},
	}
}

// runAblationRTTThresh sweeps the PMSB(e) threshold on the 1:8 static
// scenario. Too low accepts every mark (plain per-port DCTCP: unfair);
// too high ignores every mark (fair but the congested queue's latency
// balloons since nothing backs off).
func runAblationRTTThresh(opt Options) (*Result, error) {
	res := &Result{
		ID:      "ablation-rttthresh",
		Title:   "PMSB(e) RTT threshold vs fairness vs latency (1:8 flows, per-port K=16)",
		Headers: []string{"rtt_thresh_us", "q1_share", "q2_p99_rtt_us", "marks_accepted_frac"},
	}
	var shares, fracs []float64
	for _, thresh := range []time.Duration{
		0, // accept everything: plain DCTCP over per-port marking
		20 * time.Microsecond,
		40 * time.Microsecond,
		80 * time.Microsecond,
		160 * time.Microsecond,
	} {
		thresh := thresh
		r, err := runStatic(staticConfig{
			opt: opt,
			profile: defaultTwoQueueProfile(func() ecn.Marker {
				return &ecn.PerPort{K: units.Packets(16)}
			}),
			groups: []flowGroup{
				{service: 0, count: 1, filter: pmsbeFilter(thresh)},
				{service: 1, count: 8, filter: pmsbeFilter(thresh), recordRTT: true},
			},
		})
		if err != nil {
			return nil, err
		}
		q1, q2 := r.queueRate(0), r.queueRate(1)
		var seen, accepted int64
		for _, g := range r.groups {
			for _, f := range g {
				seen += f.Sender.MarksSeen()
				accepted += f.Sender.MarksAccepted()
			}
		}
		frac := 0.0
		if seen > 0 {
			frac = float64(accepted) / float64(seen)
		}
		shares = append(shares, float64(q1)/float64(q1+q2))
		fracs = append(fracs, frac)
		res.AddRow(
			fmt.Sprintf("%.1f", thresh.Seconds()*1e6),
			fmt.Sprintf("%.3f", shares[len(shares)-1]),
			usec(r.groupRTT(1).Percentile(99)),
			fmt.Sprintf("%.3f", frac),
		)
	}
	res.atMost("threshold 0 accepts every mark: plain per-port marking squeezes queue 1", "well below 0.50", "%.3f", shares[0], 0.42)
	res.within("a 40us threshold vetoes the false marks and restores the fair share", "0.50", "%.3f", shares[2], 0.42, 0.58)
	res.verdict("the accepted-mark fraction falls as the threshold rises", "-",
		fmt.Sprintf("%.3f", fracs), "non-increasing", slices.IsSortedFunc(fracs, func(a, b float64) int { return cmp.Compare(b, a) }))
	return res, nil
}

// pmsbeFilter returns a filter factory for the given threshold, or nil
// for threshold 0 (plain DCTCP).
func pmsbeFilter(thresh time.Duration) func() transport.Filter {
	if thresh == 0 {
		return nil
	}
	return func() transport.Filter { return &core.PMSBe{RTTThreshold: thresh} }
}

// runFCTWeighted: leaf-spine at one load with weights 4:2:2:2:1:1:1:1
// across the 8 services. Reports per-weight-class small-flow FCT for
// PMSB vs plain per-port marking: per-port marking victimizes the
// premium class's flows exactly as in the static experiments.
func runFCTWeighted(opt Options) (*Result, error) {
	numFlows := 1200
	load := 0.6
	if opt.Quick {
		numFlows = 250
	}
	weights := []float64{4, 2, 2, 2, 1, 1, 1, 1}
	res := &Result{
		ID:    "fct-weighted",
		Title: "Weighted services (4:2:2:2:1:1:1:1), leaf-spine, WFQ, load 0.6",
		Headers: []string{
			"scheme", "class", "small_avg_ms", "small_p99_ms", "flows",
		},
	}

	type scheme struct {
		name   string
		marker topo.MarkerFactory
	}
	schemes := []scheme{
		{"pmsb", func() ecn.Marker { return &core.PMSB{PortK: units.Packets(fctPortK)} }},
		{"per-port", func() ecn.Marker { return &ecn.PerPort{K: units.Packets(fctPortK)} }},
	}
	classOf := func(service int) string {
		switch {
		case service == 0:
			return "premium(w4)"
		case service <= 3:
			return "standard(w2)"
		default:
			return "besteffort(w1)"
		}
	}
	classes := []string{"premium(w4)", "standard(w2)", "besteffort(w1)"}

	type key struct{ scheme, class string }
	summaries := make(map[key]*stats.Summary)
	counts := make(map[key]int)
	for _, sc := range schemes {
		lsCfg := topo.LeafSpineConfig{
			Rate: fctRate,
			Ports: topo.PortProfile{
				Weights:     weights,
				NewSched:    topo.WFQFactory(),
				NewMarker:   sc.marker,
				BufferBytes: units.Packets(fctBufferPkts),
			},
		}
		_, err := opt.runPacket(leafSpineWiring(lsCfg), func(fab *topo.Fabric) time.Duration {
			specs := workload.Poisson(workload.PoissonConfig{
				Load:     load,
				LinkRate: fctRate,
				Hosts:    fab.NumHosts(),
				Dist:     workload.WebSearch(),
				Services: len(weights),
				NumFlows: numFlows,
				Seed:     opt.seed(),
			})
			opt.startFlows(fab, specs, len(weights), nil, func(_ int, s *transport.Sender) {
				if workload.Classify(s.Size()) != workload.Small {
					return
				}
				k := key{sc.name, classOf(s.Service())}
				if summaries[k] == nil {
					summaries[k] = &stats.Summary{}
				}
				summaries[k].Add(s.FCT().Seconds())
				counts[k]++
			})
			return specs[len(specs)-1].Start + 2*time.Second
		})
		if err != nil {
			return nil, fmt.Errorf("fct-weighted %s: %w", sc.name, err)
		}
	}

	for _, sc := range schemes {
		for _, class := range classes {
			k := key{sc.name, class}
			s := summaries[k]
			if s == nil {
				continue
			}
			res.AddRow(sc.name, class,
				msec(s.Mean()), msec(s.Percentile(99)), itoa(counts[k]))
		}
	}
	p := summaries[key{"pmsb", "premium(w4)"}]
	pp := summaries[key{"per-port", "premium(w4)"}]
	if p != nil && pp != nil {
		res.below("PMSB's premium-class small-flow avg FCT is below per-port marking's, which victimizes the premium queue",
			"-", p.Mean(), pp.Mean())
	}
	return res, nil
}
