package experiment

import (
	"fmt"
	"sync"
	"time"

	"pmsb/internal/core"
	"pmsb/internal/ecn"
	"pmsb/internal/stats"
	"pmsb/internal/topo"
	"pmsb/internal/transport"
	"pmsb/internal/units"
	"pmsb/internal/workload"
)

// Large-scale setup (paper Section VI-B): 48-host leaf-spine, 10 Gbps,
// DCTCP with initial window 16; PMSB/PMSB(e) port threshold 12 packets,
// PMSB(e) RTT threshold 85.2us, MQ-ECN standard threshold 65 packets,
// TCN threshold 78.2us; PMSB/PMSB(e)/MQ-ECN mark at enqueue, TCN at
// dequeue (its only option).
const (
	fctRate       = 10 * units.Gbps
	fctPortK      = 12 // packets, PMSB / PMSB(e)
	fctMQECNK     = 65 // packets, MQ-ECN standard threshold
	fctTCNThresh  = 78200 * time.Nanosecond
	fctPMSBeRTT   = 85200 * time.Nanosecond
	fctInitWindow = 16
	fctBufferPkts = 250 // shared per-port buffer
	fctServiceCnt = 8
)

// fctScheme bundles a marking scheme's fabric-wide configuration.
type fctScheme struct {
	name      string
	marker    topo.MarkerFactory
	filter    func() transport.Filter
	roundOnly bool // requires a round-based scheduler (MQ-ECN)
}

func fctSchemes() []fctScheme {
	return []fctScheme{
		{
			name:   "pmsb",
			marker: func() ecn.Marker { return &core.PMSB{PortK: units.Packets(fctPortK)} },
		},
		{
			name:   "pmsb(e)",
			marker: func() ecn.Marker { return &ecn.PerPort{K: units.Packets(fctPortK)} },
			filter: func() transport.Filter { return &core.PMSBe{RTTThreshold: fctPMSBeRTT} },
		},
		{
			name:      "mq-ecn",
			marker:    func() ecn.Marker { return mqecnFor(units.Packets(fctMQECNK), fctRate, ecn.AtEnqueue) },
			roundOnly: true,
		},
		{
			name:   "tcn",
			marker: func() ecn.Marker { return &ecn.TCN{Threshold: fctTCNThresh} },
		},
	}
}

// fctMetrics holds per-size-class FCT summaries of one run.
type fctMetrics struct {
	all, small, medium, large stats.Summary
	completed, total          int
}

// add files one completed flow under its size class.
func (m *fctMetrics) add(size int64, fct time.Duration) {
	sec := fct.Seconds()
	m.all.Add(sec)
	switch workload.Classify(size) {
	case workload.Small:
		m.small.Add(sec)
	case workload.Large:
		m.large.Add(sec)
	default:
		m.medium.Add(sec)
	}
	m.completed++
}

// fctCache memoizes full sweep results so the twelve per-figure
// projections (fig16..fig27) of one pmsbsim -all invocation do not
// re-simulate the same cells. The simulator is deterministic, so a
// cache hit is byte-identical to a re-run. Keyed by scheduler + options.
// Entries carry a sync.Once so concurrent RunMany workers that need the
// same sweep (fct-dwrr plus fig16..fig21, say) compute it exactly once:
// the first caller simulates, later callers block on the entry and then
// read the shared result.
var (
	fctCacheMu sync.Mutex
	fctCache   = map[string]*fctCacheEntry{}
)

type fctCacheEntry struct {
	once sync.Once
	res  *Result
	err  error
	// acct is the sweep's own account: every caller's manifest row
	// absorbs it, the computing caller with its events, later ones as
	// a cache hit.
	acct ledger
}

func fctCacheKey(schedName string, opt Options) string {
	return fmt.Sprintf("%s/quick=%v/seed=%d/rep=%d", schedName, opt.Quick, opt.seed(), opt.repeats())
}

// runFCTOnce simulates one (scheduler, scheme, load) cell and returns
// the FCT metrics; the cell's randomness comes entirely from seed.
func runFCTOnce(schedName string, sc fctScheme, load float64, numFlows int, seed int64, opt Options) (*fctMetrics, error) {
	lsCfg := topo.LeafSpineConfig{
		Rate: fctRate,
		Ports: topo.PortProfile{
			Weights:     topo.EqualWeights(fctServiceCnt),
			NewMarker:   sc.marker,
			BufferBytes: units.Packets(fctBufferPkts),
		},
	}
	switch schedName {
	case "dwrr":
		lsCfg.Ports.NewSchedWith = topo.DWRRSched
	case "wfq":
		lsCfg.Ports.NewSched = topo.WFQFactory()
	default:
		panic(fmt.Sprintf("experiment: unknown scheduler %q", schedName))
	}
	specs := workload.Poisson(workload.PoissonConfig{
		Load:     load,
		LinkRate: fctRate,
		Hosts:    topo.LeafSpinePaths(lsCfg).Hosts,
		Dist:     workload.WebSearch(),
		Services: fctServiceCnt,
		NumFlows: numFlows,
		Seed:     seed,
	})
	m := &fctMetrics{total: len(specs)}
	// Open-loop run: give stragglers a generous tail after the last
	// arrival, bounded so pathological retransmission loops cannot hang
	// the experiment.
	deadline := specs[len(specs)-1].Start + 2*time.Second
	_, err := opt.runPacket(leafSpineWiring(lsCfg), func(fab *topo.Fabric) time.Duration {
		opt.startFlows(fab, specs, fctServiceCnt, sc.filter, func(_ int, s *transport.Sender) { m.add(s.Size(), s.FCT()) })
		return deadline
	})
	return m, err
}

// mergeFCT pools the per-seed samples into one metrics set (the
// percentile columns then reflect the pooled distribution) and sums the
// completion counters.
func mergeFCT(reps []*fctMetrics) *fctMetrics {
	if len(reps) == 1 {
		return reps[0]
	}
	out := &fctMetrics{}
	for _, m := range reps {
		out.completed += m.completed
		out.total += m.total
		for _, pool := range [][2]*stats.Summary{{&out.all, &m.all}, {&out.small, &m.small},
			{&out.medium, &m.medium}, {&out.large, &m.large}} {
			for _, v := range pool[1].Samples() {
				pool[0].Add(v)
			}
		}
	}
	return out
}

// fctLoads returns the load sweep.
func fctLoads(opt Options) []float64 {
	if opt.Quick {
		return []float64{0.5}
	}
	return []float64{0.2, 0.4, 0.6, 0.8}
}

func fctFlows(opt Options) int {
	if opt.Quick {
		return 200
	}
	return 1500
}

// runFCTSweep produces the full table for one scheduler: one row per
// (scheme, load) with the six statistics of Figures 16-21 / 22-27. The
// heavy lifting is memoized per (scheduler, options) in fctCache;
// concurrent callers share one computation.
func runFCTSweep(id, title, schedName string, opt Options) (*Result, error) {
	key := fctCacheKey(schedName, opt)
	fctCacheMu.Lock()
	entry := fctCache[key]
	if entry == nil {
		entry = &fctCacheEntry{}
		fctCache[key] = entry
	}
	fctCacheMu.Unlock()
	hit := true
	entry.once.Do(func() {
		hit = false
		sweep := opt
		sweep.acct = &entry.acct
		entry.res, entry.err = computeFCTSweep(schedName, sweep)
	})
	opt.acct.absorb(&entry.acct, hit)
	if entry.err != nil {
		return nil, entry.err
	}
	out := *entry.res
	out.ID, out.Title = id, title
	return &out, nil
}

// computeFCTSweep simulates every (scheme, load, seed) cell of one
// scheduler's sweep. Repeats fan out across idle RunMany workers; the
// merge and all sanity checks run in deterministic seed order.
func computeFCTSweep(schedName string, opt Options) (*Result, error) {
	res := &Result{
		// ID and Title are stamped per caller by runFCTSweep.
		Headers: []string{
			"scheme", "load",
			"overall_avg_ms",
			"large_avg_ms", "large_p99_ms",
			"small_avg_ms", "small_p95_ms", "small_p99_ms",
			"completed",
		},
	}
	schemes := fctSchemes()
	type cell struct {
		scheme string
		load   float64
		m      *fctMetrics
	}
	var cells []cell
	for _, sc := range schemes {
		if sc.roundOnly && schedName != "dwrr" {
			res.AddNote("%s excluded: it only supports round-based schedulers", sc.name)
			continue
		}
		for _, load := range fctLoads(opt) {
			// Repeats > 1 pools the statistics over consecutive seeds.
			// The seeds are independent simulations, so they fan out
			// across idle workers; the sanity checks and the merge run
			// in seed order afterwards so failures and results are
			// identical at any job count.
			reps := make([]*fctMetrics, opt.repeats())
			errs := make([]error, len(reps))
			opt.eachRepeat(len(reps), func(r int) {
				reps[r], errs[r] = runFCTOnce(schedName, sc, load, fctFlows(opt), opt.seed()+int64(r), opt)
			})
			for _, err := range errs {
				if err != nil {
					return nil, fmt.Errorf("fct %s/%s@%.1f: %w", schedName, sc.name, load, err)
				}
			}
			m := mergeFCT(reps)
			cells = append(cells, cell{sc.name, load, m})
			res.AddRow(
				sc.name,
				fmt.Sprintf("%.1f", load),
				msec(m.all.Mean()),
				msec(m.large.Mean()), msec(m.large.Percentile(99)),
				msec(m.small.Mean()), msec(m.small.Percentile(95)), msec(m.small.Percentile(99)),
				fmt.Sprintf("%d/%d", m.completed, m.total),
			)
		}
	}
	// The paper's headline claims at each load (Figures 16-27): PMSB's
	// small flows finish sooner than TCN's and MQ-ECN's at no cost to
	// the overall average.
	paperVsTCN := map[string]string{"dwrr": "up to 52% below", "wfq": "up to 68% below"}[schedName]
	byKey := make(map[string]*fctMetrics, len(cells))
	for _, c := range cells {
		byKey[fmt.Sprintf("%s@%.1f", c.scheme, c.load)] = c.m
	}
	for _, load := range fctLoads(opt) {
		p := byKey[fmt.Sprintf("pmsb@%.1f", load)]
		if t := byKey[fmt.Sprintf("tcn@%.1f", load)]; p != nil && t != nil {
			res.below(fmt.Sprintf("load %.1f: PMSB's small-flow avg FCT is below TCN's", load), paperVsTCN, p.small.Mean(), t.small.Mean())
			res.below(fmt.Sprintf("load %.1f: PMSB's small-flow p99 FCT is below TCN's", load), paperVsTCN, p.small.Percentile(99), t.small.Percentile(99))
			res.atMost(fmt.Sprintf("load %.1f: PMSB's overall avg FCT stays comparable to TCN's", load), "within a few %",
				"%.2fx", p.all.Mean()/t.all.Mean(), 1.6)
		}
		if mq := byKey[fmt.Sprintf("mq-ecn@%.1f", load)]; p != nil && mq != nil {
			res.below(fmt.Sprintf("load %.1f: PMSB's small-flow avg FCT is below MQ-ECN's", load), "~40% below", p.small.Mean(), mq.small.Mean())
		}
	}
	return res, nil
}

// fctColumn produces one paper figure: a single statistic across loads
// and schemes (runs the same sweep, reports one column).
func fctColumn(id, title, schedName, column string) Spec {
	return Spec{
		ID:         id,
		Title:      title,
		Randomized: true,
		Run: func(opt Options) (*Result, error) {
			full, err := runFCTSweep(id, title, schedName, opt)
			if err != nil {
				return nil, err
			}
			colIdx := -1
			for i, h := range full.Headers {
				if h == column {
					colIdx = i
				}
			}
			if colIdx < 0 {
				return nil, fmt.Errorf("experiment %s: column %q missing", id, column)
			}
			out := &Result{
				ID:       id,
				Title:    title,
				Headers:  []string{"scheme", "load", column},
				Notes:    full.Notes,
				Verdicts: full.Verdicts,
			}
			for _, row := range full.Rows {
				out.AddRow(row[0], row[1], row[colIdx])
			}
			return out, nil
		},
	}
}

// runAblationMarkPoint ablates the paper's Section VI-B choice of
// enqueue marking for PMSB at leaf-spine scale: dequeue marking
// delivers congestion information one sojourn earlier (the Figure 11
// effect) at otherwise identical settings.
func runAblationMarkPoint(opt Options) (*Result, error) {
	res := &Result{
		ID:    "ablation-markpoint",
		Title: "PMSB enqueue vs dequeue marking at leaf-spine scale (DWRR, load 0.6)",
		Headers: []string{
			"mark_point", "overall_avg_ms", "small_avg_ms", "small_p99_ms", "completed",
		},
	}
	numFlows := fctFlows(opt)
	for _, point := range []ecn.Point{ecn.AtEnqueue, ecn.AtDequeue} {
		point := point
		sc := fctScheme{
			name:   "pmsb-" + point.String(),
			marker: func() ecn.Marker { return &core.PMSB{PortK: units.Packets(fctPortK), MarkPoint: point} },
		}
		m, err := runFCTOnce("dwrr", sc, 0.6, numFlows, opt.seed(), opt)
		if err != nil {
			return nil, fmt.Errorf("ablation-markpoint %s: %w", sc.name, err)
		}
		res.AddRow(
			point.String(),
			msec(m.all.Mean()),
			msec(m.small.Mean()), msec(m.small.Percentile(99)),
			fmt.Sprintf("%d/%d", m.completed, m.total),
		)
	}
	res.AddNote("the paper marks at enqueue in Section VI-B; dequeue marking trades slightly earlier congestion notification for marking decisions on already-drained occupancy")
	return res, nil
}

func fctSpecs() []Spec {
	specs := []Spec{
		{
			ID:    "ablation-markpoint",
			Title: "Ablation: PMSB enqueue vs dequeue marking at scale",
			Run:   runAblationMarkPoint,
		},
		{
			ID:    "fct-dwrr",
			Title: "Large-scale FCT sweep, DWRR scheduler (Figures 16-21)",
			Run: func(opt Options) (*Result, error) {
				return runFCTSweep("fct-dwrr", "Large-scale FCT, DWRR", "dwrr", opt)
			},
			Randomized: true,
		},
		{
			ID:    "fct-wfq",
			Title: "Large-scale FCT sweep, WFQ scheduler (Figures 22-27)",
			Run: func(opt Options) (*Result, error) {
				return runFCTSweep("fct-wfq", "Large-scale FCT, WFQ", "wfq", opt)
			},
			Randomized: true,
		},
	}
	dwrrCols := []struct{ id, title, col string }{
		{"fig16", "Overall average FCT (DWRR)", "overall_avg_ms"},
		{"fig17", "Large-flow average FCT (DWRR)", "large_avg_ms"},
		{"fig18", "Large-flow 99th percentile FCT (DWRR)", "large_p99_ms"},
		{"fig19", "Small-flow average FCT (DWRR)", "small_avg_ms"},
		{"fig20", "Small-flow 95th percentile FCT (DWRR)", "small_p95_ms"},
		{"fig21", "Small-flow 99th percentile FCT (DWRR)", "small_p99_ms"},
	}
	for _, c := range dwrrCols {
		specs = append(specs, fctColumn(c.id, c.title, "dwrr", c.col))
	}
	wfqCols := []struct{ id, title, col string }{
		{"fig22", "Overall average FCT (WFQ)", "overall_avg_ms"},
		{"fig23", "Large-flow average FCT (WFQ)", "large_avg_ms"},
		{"fig24", "Large-flow 99th percentile FCT (WFQ)", "large_p99_ms"},
		{"fig25", "Small-flow average FCT (WFQ)", "small_avg_ms"},
		{"fig26", "Small-flow 95th percentile FCT (WFQ)", "small_p95_ms"},
		{"fig27", "Small-flow 99th percentile FCT (WFQ)", "small_p99_ms"},
	}
	for _, c := range wfqCols {
		specs = append(specs, fctColumn(c.id, c.title, "wfq", c.col))
	}
	return specs
}
