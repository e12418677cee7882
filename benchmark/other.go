package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"pmsb/internal/experiment"
	"pmsb/internal/flowsim"
	"pmsb/internal/pkt"
	"pmsb/internal/sim"
	"pmsb/internal/topo"
	"pmsb/internal/workload"
)

// --- flowsim-scale -------------------------------------------------------

// The flow-scale experiment's shape, built directly so the benchmark
// controls the seed and sees per-flow results: a 20k-host leaf-spine
// (scale 1) under web-search permutation traffic on the fluid engine.
// No packet layer runs.
const (
	flowsimLeaves       = 250
	flowsimSpines       = 32
	flowsimHostsPerLeaf = 80
)

func runFlowsimScale(e *repEnv) error {
	if e.cfg.Variant == variantRef {
		return runCalibrate(e)
	}
	m := e.res.Layer
	t := time.Now()
	g := topo.LeafSpinePaths(topo.LeafSpineConfig{
		Leaves: e.scaled(flowsimLeaves), Spines: flowsimSpines,
		HostsPerLeaf: flowsimHostsPerLeaf, Rate: linkRate,
	})
	m["flowsim.graph_build_s"] = time.Since(t).Seconds()
	e.res.Sizes["hosts"], e.res.Sizes["links"] = g.Hosts, len(g.Links)

	specs := e.generate(func() []workload.FlowSpec {
		return workload.Permutation(workload.PermutationConfig{
			Hosts: g.Hosts, Dist: workload.WebSearch(), Stagger: time.Microsecond,
			Services: 4, Seed: e.cfg.Seed,
		})
	})
	eng := sim.NewEngine()
	fcts := make([]time.Duration, 0, len(specs))
	fs := flowsim.New(eng, g, flowsim.Config{
		Marking:    flowsim.PMSB{KBytes: float64(pmsbK)},
		Weights:    []int{1, 1, 1, 1},
		InitWindow: 16,
		OnFinish:   func(r flowsim.FlowResult) { fcts = append(fcts, r.FCT) },
	})
	t = time.Now()
	fs.Start(specs)
	m["flowsim.start_s"] = time.Since(t).Seconds()

	e.beginTimed()
	eng.RunUntil(specs[len(specs)-1].Start + 500*time.Millisecond)
	e.endTimed(eng.Processed())

	e.res.Units, e.res.Finished = len(specs), len(fcts)
	e.setFCT(fcts)
	e.res.Digest = digest(fcts, int64(eng.Processed()))
	m["flowsim.flows"] = float64(len(specs))
	m["flowsim.events"] = float64(eng.Processed())
	m["flowsim.ns_per_flow"] = ratio(e.res.WallS*1e9, float64(len(specs)))
	st := eng.Stats()
	m["sim.pending_hiwater"] = float64(st.HiWater)
	m["sim.queue_buckets"] = float64(st.Queue.Buckets)
	m["sim.queue_width_ns"] = float64(st.Queue.Width)
	m["sim.queue_grows"] = float64(st.Queue.Grows)
	m["sim.queue_shrinks"] = float64(st.Queue.Shrinks)
	m["sim.queue_migrations"] = float64(st.Queue.Migrations)
	return nil
}

// runCalibrate is flowsim-scale's reference run: the repository's own
// calibration experiment, so the fluid engine's error against the packet
// engine is stated beside its speed.
func runCalibrate(e *repEnv) error {
	spec, err := experiment.Lookup("calibrate")
	if err != nil {
		return err
	}
	e.beginTimed()
	res, err := spec.Run(experiment.Options{Quick: true, Seed: e.cfg.Seed})
	e.endTimed(0)
	if err != nil {
		return err
	}
	e.res.Units, e.res.Finished = 1, 1
	worst := func(col string) float64 {
		var w float64
		for _, row := range res.Rows {
			v, err := strconv.ParseFloat(strings.TrimSuffix(cell(res, row, col), "%"), 64)
			if err == nil {
				w = math.Max(w, math.Abs(v))
			}
		}
		return w
	}
	e.res.Layer["flowsim.calib_err_p50_pct"] = worst("p50_err")
	e.res.Layer["flowsim.calib_err_p99_pct"] = worst("p99_err")
	e.res.Digest = resultsDigest([]*experiment.Result{res})
	return nil
}

// --- paper-quick ---------------------------------------------------------

// paperSeeded are the quick experiments run at the benchmark's seed.
// Together they touch the schedulers the paper evaluates (DWRR, WFQ, SP,
// SP+WFQ), every marker (PMSB, PMSB(e), MQ-ECN, TCN, per-queue, per-port,
// per-pool, EWMA-averaged), DCTCP, DCQCN over PFC, and all three
// topologies.
var paperSeeded = []string{
	"pfc", "fattree32", // largest footprints first, on a clean heap: peak RSS repeats
	"table1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
	"fig11", "fig12", "fig13", "fig14", "fig15", "pool", "incast", "ablation-average",
	"fattree", "fattree-incast", "scenario-incast", "scenario-permutation",
}

// paperPinned run at the paper's seed 1 whatever the benchmark's seed:
// the quick FCT sweep draws 200 web-search flows, and across seeds its
// event count moves by +-30% and its small-flow mean by as much — wider
// than any regression bound. fig19/fig20 project the sweep's columns
// (served from the package's sweep cache, as in `pmsbsim -all`).
var paperPinned = []string{"fct-dwrr", "fig19", "fig20"}

func lookupAll(ids []string) ([]experiment.Spec, error) {
	specs := make([]experiment.Spec, 0, len(ids))
	for _, id := range ids {
		s, err := experiment.Lookup(id)
		if err != nil {
			return nil, err
		}
		specs = append(specs, s)
	}
	return specs, nil
}

func runPaperQuick(e *repEnv) error {
	seeded, err := lookupAll(paperSeeded)
	if err != nil {
		return err
	}
	pinned, err := lookupAll(paperPinned)
	if err != nil {
		return err
	}
	e.res.Sizes["experiments"] = len(seeded) + len(pinned)
	if e.cfg.Variant == variantTraced {
		pkt.EnablePoolStats(true)
	}

	// One RunMany call per experiment, in list order: a single call
	// hands its one worker token to whichever experiment's goroutine
	// wakes first, so the order — and with it the heap every experiment
	// starts from and the process's peak RSS — would differ run to run.
	var results []*experiment.Result
	var reports []experiment.ExperimentReport
	var events int64
	runAll := func(specs []experiment.Spec, seed int64) error {
		for _, spec := range specs {
			res, manifest, err := experiment.RunMany([]experiment.Spec{spec}, experiment.Options{Quick: true, Seed: seed}, 1)
			if err != nil {
				return err
			}
			results = append(results, res...)
			reports = append(reports, manifest.Experiments...)
			events += manifest.TotalEvents
		}
		return nil
	}
	e.beginTimed()
	if err := runAll(seeded, e.cfg.Seed); err != nil {
		return err
	}
	if err := runAll(pinned, 1); err != nil {
		return err
	}
	e.endTimed(uint64(events))

	e.res.Units = len(seeded) + len(pinned)
	byID := map[string]*experiment.Result{}
	for _, r := range results {
		if len(r.Rows) > 0 {
			e.res.Finished++
		}
		byID[r.ID] = r
	}
	e.res.Digest = resultsDigest(results)
	paperClaims(e.res, byID)

	// The paper's Fig. 19/20 statistic: PMSB small-flow mean and p95 FCT.
	if fct := byID["fct-dwrr"]; fct != nil {
		if row := findRow(fct, "scheme", "pmsb"); row != nil {
			e.res.FCTMeanUs = num(fct, row, "small_avg_ms") * 1e3
			e.res.FCTP95Us = num(fct, row, "small_p95_ms") * 1e3
		}
	}

	m := e.res.Layer
	m["experiment.events_total"] = float64(e.res.Events)
	var static, fct, fattree struct{ ms, events float64 }
	for _, r := range reports {
		acc := &static
		switch {
		case strings.HasPrefix(r.ID, "fct-"), r.ID == "fig19", r.ID == "fig20":
			// Whichever of the three runs first computes the sweep and is
			// charged its events; the others read the package's cache.
			acc = &fct
		case strings.HasPrefix(r.ID, "fattree"), strings.HasPrefix(r.ID, "scenario-"):
			acc = &fattree
		}
		acc.ms += r.WallMS
		acc.events += float64(r.Events)
		m["experiment.slowest_wall_ms"] = math.Max(m["experiment.slowest_wall_ms"], r.WallMS)
	}
	m["experiment.static_ns_per_event"] = ratio(static.ms*1e6, static.events)
	m["experiment.fct_ns_per_event"] = ratio(fct.ms*1e6, fct.events)
	m["experiment.fattree_ns_per_event"] = ratio(fattree.ms*1e6, fattree.events)
	if e.cfg.Variant == variantTraced {
		ps := pkt.ReadPoolStats()
		pkt.EnablePoolStats(false)
		m["pkt.gets"] = float64(ps.Gets)
		m["pkt.releases"] = float64(ps.Releases)
		m["pkt.inuse_hiwater"] = float64(ps.HiWater)
	}
	return nil
}

// resultsDigest hashes the tables (ID, headers, rows). Notes are left
// out: several carry wall-clock times.
func resultsDigest(results []*experiment.Result) string {
	h := sha256.New()
	for _, r := range results {
		fmt.Fprintf(h, "%s\n%s\n", r.ID, strings.Join(r.Headers, "\t"))
		for _, row := range r.Rows {
			fmt.Fprintf(h, "%s\n", strings.Join(row, "\t"))
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// cell returns row's value in the named column ("" if absent).
func cell(r *experiment.Result, row []string, col string) string {
	for i, h := range r.Headers {
		if h == col && i < len(row) {
			return row[i]
		}
	}
	return ""
}

// num parses row's value in the named column (NaN if absent or not a
// number, so every comparison against it is false and the claim fails).
func num(r *experiment.Result, row []string, col string) float64 {
	v, err := strconv.ParseFloat(cell(r, row, col), 64)
	if err != nil {
		return math.NaN()
	}
	return v
}

// findRow returns the first row whose keyCol cells equal keys, in order.
func findRow(r *experiment.Result, keyCol string, keys ...string) []string {
	cols := strings.Split(keyCol, ",")
	for _, row := range r.Rows {
		match := true
		for i, c := range cols {
			if cell(r, row, c) != keys[i] {
				match = false
			}
		}
		if match {
			return row
		}
	}
	return nil
}

// paperClaims checks the paper's claims against the result tables. Each
// is a pass/fail operation of the workload, not prose.
func paperClaims(res *repResult, byID map[string]*experiment.Result) {
	get := func(id, keyCol, col string, keys ...string) float64 {
		r := byID[id]
		if r == nil {
			return math.NaN()
		}
		row := findRow(r, keyCol, keys...)
		if row == nil {
			return math.NaN()
		}
		return num(r, row, col)
	}
	near := func(v, want, tol float64) bool { return math.Abs(v-want) <= tol }
	tput := func(id string, keys ...string) float64 {
		if len(keys) == 2 {
			return get(id, "phase,queue", "throughput_gbps", keys...)
		}
		return get(id, "queue", "throughput_gbps", keys...)
	}

	// Fig. 3: plain per-port marking starves the single-flow queue.
	q1, q2 := tput("fig3", "1"), tput("fig3", "2")
	res.check("claim.fig3_perport_unfair", q1/(q1+q2) < 0.40, "queue 1 share %.3f, want < 0.40", q1/(q1+q2))

	// Fig. 8 / Fig. 10: PMSB restores the 1:1 share at full utilisation.
	for _, c := range []struct{ name, id string }{
		{"claim.fig8_pmsb_fair", "fig8"}, {"claim.fig10_pmsb_fair_heavy", "fig10"},
	} {
		q1, q2 := tput(c.id, "1"), tput(c.id, "2")
		res.check(c.name, near(q1/(q1+q2), 0.50, 0.02) && q1+q2 >= 9.9,
			"share %.3f (want 0.50+-0.02), total %.2f Gbps (want >= 9.9)", q1/(q1+q2), q1+q2)
	}

	// Fig. 9: PMSB's average RTT is below every per-queue scheme's.
	pmsb := get("fig9", "scheme", "avg_rtt_us", "pmsb")
	ok := true
	for _, other := range []string{"mq-ecn", "tcn", "per-queue-std"} {
		ok = ok && pmsb < get("fig9", "scheme", "avg_rtt_us", other)
	}
	res.check("claim.fig9_pmsb_rtt", ok, "PMSB avg RTT %.1f us is not below MQ-ECN, TCN and per-queue", pmsb)

	// Fig. 11: dequeue marking lowers the buffer peak.
	enq, deq := get("fig11", "mark_point", "peak_pkts", "enqueue"), get("fig11", "mark_point", "peak_pkts", "dequeue")
	res.check("claim.fig11_dequeue_peak", deq < enq, "dequeue peak %.0f pkts, enqueue peak %.0f", deq, enq)

	// Figs. 13-15: PMSB keeps the policy of SP+WFQ, SP and WFQ.
	for _, c := range []struct {
		name, id string
		want     []float64
	}{
		{"claim.fig13_spwfq", "fig13", []float64{5, 2.5, 2.5}},
		{"claim.fig14_sp", "fig14", []float64{5, 3, 2}},
		{"claim.fig15_wfq", "fig15", []float64{5, 5}},
	} {
		ok, got := true, make([]string, len(c.want))
		for q, want := range c.want {
			v := tput(c.id, "3", strconv.Itoa(q+1))
			ok = ok && near(v, want, 0.1)
			got[q] = strconv.FormatFloat(v, 'f', 2, 64)
		}
		res.check(c.name, ok, "final-phase throughputs %s Gbps, want %v +-0.1", strings.Join(got, "/"), c.want)
	}

	// Figs. 19/20: PMSB's small flows finish sooner than under MQ-ECN
	// and TCN, on average and at the 95th percentile.
	ok = true
	for _, col := range []string{"small_avg_ms", "small_p95_ms"} {
		p := get("fct-dwrr", "scheme", col, "pmsb")
		for _, other := range []string{"mq-ecn", "tcn"} {
			ok = ok && p < get("fct-dwrr", "scheme", col, other)
		}
	}
	res.check("claim.fct_dwrr_small", ok, "PMSB small-flow avg/p95 FCT is not below both MQ-ECN and TCN")
}
