package experiment

import (
	"fmt"
	"math"
	"time"

	"pmsb/internal/core"
	"pmsb/internal/ecn"
	"pmsb/internal/topo"
	"pmsb/internal/units"
)

func theorem41Spec() Spec {
	return Spec{
		ID:    "theorem41",
		Title: "Theorem IV.1: per-queue threshold lower bound avoids throughput loss",
		Run:   runTheorem41,
	}
}

// runTheorem41 sweeps the marking threshold around the Theorem IV.1
// bound k* = gamma C RTT / 7 with the worst-case flow count of Eq. 11
// and measures bottleneck throughput: thresholds well below the bound
// leave the queue underflowing (throughput loss), thresholds above it
// keep the link full.
func runTheorem41(opt Options) (*Result, error) {
	// Single queue: gamma = 1. Use the dumbbell's own base RTT so the
	// bound matches the simulated path. The 10us per-link delay keeps
	// the bandwidth-delay product large enough that the worst-case flow
	// count of Eq. 11 exceeds one (a lone flow cannot congest an
	// equal-rate bottleneck in a NIC-smoothed packet model).
	const theoremDelay = 10 * time.Microsecond
	rtt := topo.DumbbellPaths(topo.DumbbellConfig{
		Senders: 1, AccessRate: motiveRate, Delay: theoremDelay,
	}).BaseRTT
	an := &core.Analysis{C: motiveRate, RTT: rtt, Weights: []float64{1}}
	bound := an.MinThreshold(0)

	res := &Result{
		ID:    "theorem41",
		Title: fmt.Sprintf("Throughput vs threshold (bound k* = %.0f B = %.1f pkts, RTT = %v)", bound, bound/units.MTU, rtt),
		Headers: []string{
			"k_over_bound", "threshold_pkts", "flows", "throughput_gbps", "utilization",
		},
	}
	factors := []float64{0.25, 0.5, 1.0, 2.0, 4.0}
	utils := make(map[float64]float64)
	for _, f := range factors {
		k := int(f * bound)
		if k < units.MTU {
			k = units.MTU / 2 // keep sub-MTU thresholds meaningful
		}
		n := int(math.Round(an.WorstCaseFlows(0, float64(k))))
		if n < 1 {
			n = 1
		}
		r, err := runStatic(staticConfig{
			opt: opt,
			profile: topo.PortProfile{
				Weights:   topo.EqualWeights(1),
				NewSched:  topo.FIFOFactory(),
				NewMarker: func() ecn.Marker { return &ecn.PerQueueStandard{K: k} },
			},
			accessRate: motiveRate, bottleneckRate: motiveRate, delay: theoremDelay,
			groups: []flowGroup{{service: 0, count: n}},
		})
		if err != nil {
			return nil, err
		}
		rate := r.totalRate()
		util := float64(rate) / float64(motiveRate)
		utils[f] = util
		res.AddRow(
			fmt.Sprintf("%.2f", f),
			fmt.Sprintf("%.1f", float64(k)/units.MTU),
			itoa(n),
			gbps(rate),
			fmt.Sprintf("%.3f", util),
		)
	}
	res.AddNote("thresholds above the bound keep utilization near 1; far below it, the queue underflows (theorem's claim)")
	res.AddNote("utilization at 0.25x bound = %.3f vs %.3f at 4x bound", utils[0.25], utils[4.0])
	return res, nil
}
