package experiment

import (
	"fmt"
	"time"

	"pmsb/internal/flowsim"
	"pmsb/internal/stats"
	"pmsb/internal/topo"
	"pmsb/internal/workload"
)

// The calibration harness: every shared scenario runs through the
// packet engine (ground truth) and the flow-level fluid engine, and the
// FCT distribution percentiles are compared head-to-head. The relative
// error column is the fast path's accuracy budget; the run manifest's
// per-engine wall times are what it buys. EXPERIMENTS.md walks through
// reading the table.

// fctSummary pools the non-zero FCTs (completed flows) into a summary,
// restricted to indices where both engines completed when both is set.
func fctSummary(fcts []time.Duration, both []time.Duration) stats.Summary {
	var s stats.Summary
	for i, fct := range fcts {
		if fct == 0 {
			continue
		}
		if both != nil && both[i] == 0 {
			continue
		}
		s.Add(fct.Seconds())
	}
	return s
}

func relErr(flow, packet float64) string {
	if packet == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", (flow-packet)/packet*100)
}

// runCalibrate runs every scenario through both engines and tabulates
// FCT p50/p95/p99 of each plus the flow engine's relative error,
// computed over the flows that completed in both engines.
func runCalibrate(opt Options) (*Result, error) {
	res := &Result{
		ID:    "calibrate",
		Title: "Flow-level engine calibration vs packet-level ground truth",
		Headers: []string{
			"scenario", "flows", "pkt_done", "flow_done",
			"pkt_p50_ms", "flow_p50_ms", "p50_err",
			"pkt_p95_ms", "flow_p95_ms", "p95_err",
			"pkt_p99_ms", "flow_p99_ms", "p99_err",
		},
	}
	for _, def := range scenarioDefs() {
		net := def.build(opt.Quick, opt.seed())
		pkt, err := net.packet(def.id, opt)
		if err != nil {
			return nil, err
		}
		flow := net.fluid(opt)
		ps := fctSummary(pkt.fcts, flow.fcts)
		fs := fctSummary(flow.fcts, pkt.fcts)
		if ps.Count() == 0 || fs.Count() == 0 {
			return nil, fmt.Errorf("calibrate %s: no flows completed in both engines (pkt %d, flow %d)",
				def.id, pkt.completed(), flow.completed())
		}
		row := []string{
			def.id,
			fmt.Sprintf("%d", len(net.specs)),
			fmt.Sprintf("%d", pkt.completed()),
			fmt.Sprintf("%d", flow.completed()),
		}
		for _, p := range []float64{50, 95, 99} {
			pv, fv := ps.Percentile(p), fs.Percentile(p)
			row = append(row, msec(pv), msec(fv), relErr(fv, pv))
		}
		res.AddRow(row...)
		res.AddNote("%s: packet %d / flow %d events", def.id, pkt.events, flow.events)
	}
	res.AddNote("errors computed over flows completed in both engines; seed %d, quick=%v", opt.seed(), opt.Quick)
	return res, nil
}

// runFlowScale runs the flow engine on a fabric far beyond the packet
// engine's reach: a 1000-leaf x 64-spine, 100k-host leaf-spine (quick:
// 100 x 16, 5k hosts) under permutation traffic with web-search sizes.
// The packet engine at this scale would need billions of events; the
// flow engine's solve count is bounded by sim-time/quantum.
func runFlowScale(opt Options) (*Result, error) {
	cfg := topo.LeafSpineConfig{Leaves: 1000, Spines: 64, HostsPerLeaf: 100, Rate: fctRate}
	if opt.Quick {
		cfg = topo.LeafSpineConfig{Leaves: 100, Spines: 16, HostsPerLeaf: 50, Rate: fctRate}
	}
	g := topo.LeafSpinePaths(cfg)
	specs := workload.Permutation(workload.PermutationConfig{
		Hosts:    g.Hosts,
		Dist:     workload.WebSearch(),
		Stagger:  time.Microsecond,
		Services: fattreeServices,
		Seed:     opt.seed(),
	})
	deadline := specs[len(specs)-1].Start + 500*time.Millisecond

	completed := 0
	var fcts stats.Summary
	events := opt.runFluid(g, specs, deadline, func(r flowsim.FlowResult) {
		completed++
		fcts.Add(r.FCT.Seconds())
	})

	res := &Result{
		ID:      "flow-scale",
		Title:   "Flow-level engine at 100k-host scale (packet engine: out of reach)",
		Headers: []string{"metric", "value"},
	}
	res.AddRow("hosts", fmt.Sprintf("%d", g.Hosts))
	res.AddRow("links", fmt.Sprintf("%d", len(g.Links)))
	res.AddRow("flows", fmt.Sprintf("%d", len(specs)))
	res.AddRow("completed", fmt.Sprintf("%d", completed))
	res.AddRow("events", fmt.Sprintf("%d", events))
	res.AddRow("sim-horizon-ms", fmt.Sprintf("%.1f", deadline.Seconds()*1e3))
	if fcts.Count() > 0 {
		res.AddRow("fct-p50-ms", msec(fcts.Percentile(50)))
		res.AddRow("fct-p99-ms", msec(fcts.Percentile(99)))
	}
	if completed < len(specs) {
		res.AddNote("%d of %d flows unfinished at %v", len(specs)-completed, len(specs), deadline)
	}
	return res, nil
}

// calibrateSpecs registers the calibration harness and the scale
// demonstration.
func calibrateSpecs() []Spec {
	return []Spec{
		{
			ID:        "calibrate",
			Title:     "Flow-level engine calibration vs packet-level ground truth",
			Run:       runCalibrate,
			MaxShards: fattreeK, // scenario-fattree's fabric
		},
		{
			ID:    "flow-scale",
			Title: "Flow-level engine at 100k-host scale",
			Run:   runFlowScale,
		},
	}
}
