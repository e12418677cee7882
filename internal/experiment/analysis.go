package experiment

import (
	"fmt"
	"time"

	"pmsb/internal/core"
	"pmsb/internal/ecn"
	"pmsb/internal/topo"
	"pmsb/internal/units"
)

// analysisSpecs registers two model-validation extensions:
//
//   - analysis-validation: the Section IV-D steady-state model (Q_max
//     and oscillation amplitude, Eqs. 8-9) against the simulated queue.
//   - ablation-average: instantaneous vs EWMA-averaged occupancy
//     marking (the "average/instantaneous buffer length" choice of
//     Section II-A) and its cost in burst response.
func analysisSpecs() []Spec {
	return []Spec{
		{ID: "analysis-validation", Title: "Validate the Section IV-D steady-state model against simulation", Run: runAnalysisValidation},
		{ID: "ablation-average", Title: "Ablation: instantaneous vs averaged occupancy marking", Run: runAblationAverage},
	}
}

// runAnalysisValidation runs n synchronized long-lived flows against a
// per-queue threshold and compares the simulated steady-state queue
// maximum with the model's Q_max = k + n (Eq. 8 in packets).
func runAnalysisValidation(opt Options) (*Result, error) {
	const delay = 10 * time.Microsecond
	kPkts := 16
	k := units.Packets(kPkts)
	res := &Result{
		ID:    "analysis-validation",
		Title: "Steady-state queue model vs simulation (per-queue K=16 pkts)",
		Headers: []string{
			"flows", "model_qmax_pkts", "sim_qmax_pkts", "model_amp_pkts", "sim_amp_pkts",
		},
	}
	an := &core.Analysis{C: motiveRate, RTT: 42500 * time.Nanosecond, Weights: []float64{1}}
	for _, n := range []int{2, 4, 8} {
		r, err := runStatic(staticConfig{
			opt: opt,
			profile: topo.PortProfile{
				Weights:   topo.EqualWeights(1),
				NewSched:  topo.FIFOFactory(),
				NewMarker: func() ecn.Marker { return &ecn.PerQueueStandard{K: k} },
			},
			accessRate: motiveRate, bottleneckRate: motiveRate, delay: delay,
			groups: []flowGroup{{service: 0, count: n}},
		})
		if err != nil {
			return nil, err
		}
		simMax := r.trace.MaxAfter(r.cfg.warmup)
		simMin := r.trace.MinAfter(r.cfg.warmup)
		simAmp := (simMax - simMin) / 2
		modelMax := an.QueueMax(0, n, float64(k)) / units.MTU
		modelAmp := an.Amplitude(0, n, float64(k)) / units.MTU
		res.AddRow(
			itoa(n),
			fmt.Sprintf("%.1f", modelMax),
			fmt.Sprintf("%.1f", simMax),
			fmt.Sprintf("%.1f", modelAmp),
			fmt.Sprintf("%.1f", simAmp),
		)
		res.verdict(fmt.Sprintf("Eq. 8's Q_max predicts the simulated queue maximum (%d flows)", n),
			fmt.Sprintf("%.1f pkts", modelMax), fmt.Sprintf("%.1f pkts", simMax), "[0.8x, 1.25x] paper",
			simMax >= 0.8*modelMax && simMax <= 1.25*modelMax)
		// The model assumes synchronized sawtooths; simulation
		// desynchronizes, so the amplitude sits at or below the model's,
		// the conservative direction for Theorem IV.1.
		res.verdict(fmt.Sprintf("Eq. 9's amplitude bounds the simulated one (%d flows)", n),
			fmt.Sprintf("%.1f pkts", modelAmp), fmt.Sprintf("%.1f pkts", simAmp), "<= 1.2x paper", simAmp <= 1.2*modelAmp)
	}
	return res, nil
}

// runAblationAverage compares instantaneous marking with EWMA-averaged
// variants in the 4-flow burst scenario: smaller averaging weights
// react later, so the slow-start peak grows.
func runAblationAverage(opt Options) (*Result, error) {
	rate := 1 * units.Gbps
	k := units.Packets(16)
	res := &Result{
		ID:      "ablation-average",
		Title:   "Marking on instantaneous vs averaged occupancy (4 flows, 1 Gbps, K=16)",
		Headers: []string{"ewma_weight", "peak_pkts", "steady_mean_pkts", "mark_fraction"},
	}
	var peaks []float64
	for _, w := range []float64{1.0, 0.25, 0.0625} {
		w := w
		r, err := runStatic(staticConfig{
			opt: opt,
			profile: topo.PortProfile{
				Weights:  topo.EqualWeights(1),
				NewSched: topo.FIFOFactory(),
				NewMarker: func() ecn.Marker {
					return ecn.NewAveraged(&ecn.PerQueueStandard{K: k}, w)
				},
			},
			accessRate: rate, bottleneckRate: rate, delay: motiveDelay,
			groups:     []flowGroup{{service: 0, count: 4}},
			initWindow: 16,
		})
		if err != nil {
			return nil, err
		}
		peaks = append(peaks, r.trace.Max())
		res.AddRow(
			fmt.Sprintf("%.4g", w),
			ftoa(r.trace.Max()),
			ftoa(r.trace.MeanAfter(r.cfg.warmup)),
			fmt.Sprintf("%.3f", r.markFraction()),
		)
	}
	res.AddNote("weight 1.0 is instantaneous marking, what datacenter ECN marks on")
	res.below("instantaneous marking's burst peak is below heavy averaging's (weight 0.0625): averaging delays the signal",
		"-", peaks[0], peaks[2])
	return res, nil
}
