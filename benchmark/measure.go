package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"time"

	"pmsb/internal/stats"
)

// The measuring side: run reps of one workload for a fixed time, each in
// a fresh child process, and reduce them to the contract's metrics.
// End-to-end metrics always come from plain reps. A traced measurement
// alternates plain and traced reps (and runs the workload's reference
// rep once), so every per-layer number has the untraced run beside it.

// repRunner executes one rep and returns its result and its set-up time
// as the caller saw it.
type repRunner func(ctx context.Context, cfg repConfig) (*repResult, float64, error)

// spawnRep runs a rep as a child process (a re-exec of this binary).
// The child's stdout is its result; setup_s runs from just before the
// process is started to the start of its timed phase, so process
// start-up, the pre-roll and every set-up step are in it.
func spawnRep(ctx context.Context, cfg repConfig) (*repResult, float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, 0, fmt.Errorf("locate benchmark binary: %w", err)
	}
	cmd := exec.CommandContext(ctx, self, "rep",
		"-workload", cfg.Workload, "-variant", cfg.Variant,
		"-seed", strconv.FormatInt(cfg.Seed, 10),
		"-scale", strconv.FormatFloat(cfg.Scale, 'g', -1, 64),
		"-out", cfg.OutDir)
	cmd.Stderr = os.Stderr
	t0 := time.Now()
	out, err := cmd.Output() // waits for the child to end
	if err != nil {
		return nil, 0, fmt.Errorf("rep %s/%s: %w", cfg.Workload, cfg.Variant, err)
	}
	var res repResult
	if err := json.Unmarshal(bytes.TrimSpace(out), &res); err != nil {
		return nil, 0, fmt.Errorf("rep %s/%s: parse result: %w", cfg.Workload, cfg.Variant, err)
	}
	return &res, time.Unix(0, res.TimedStartUnixNano).Sub(t0).Seconds(), nil
}

// measureConfig selects one measurement.
type measureConfig struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	Scale    float64
	OutDir   string
}

// metricValue is one reported metric: the median over reps, with the
// per-rep samples kept so compare can judge the run's own spread.
type metricValue struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Samples []float64 `json:"samples,omitempty"`
}

// measurement is one workload's reduced result.
type measurement struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Trace     bool                   `json:"trace"`
	Reps      int                    `json:"reps"`
	Sizes     map[string]int         `json:"sizes"`
	Digest    string                 `json:"sim_digest"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Failures  []check                `json:"failures,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (m *measurement) check(name string, ok bool, format string, args ...any) {
	m.Attempted++
	if !ok {
		m.Failed++
		m.Failures = append(m.Failures, check{Name: name, Detail: fmt.Sprintf(format, args...)})
	}
}

// absorb counts a rep's work units and checks.
func (m *measurement) absorb(r *repResult) {
	m.Attempted += r.Units + len(r.Checks)
	m.Failed += r.Units - r.Finished
	if r.Finished < r.Units {
		m.Failures = append(m.Failures, check{
			Name:   r.Variant + ".unfinished",
			Detail: fmt.Sprintf("%d of %d work units did not finish before the horizon", r.Units-r.Finished, r.Units),
		})
	}
	for _, c := range r.Checks {
		if !c.OK {
			m.Failed++
			m.Failures = append(m.Failures, check{Name: r.Variant + "." + c.Name, Detail: c.Detail})
		}
	}
}

// summarize loads samples into the repository's order-statistics type.
func summarize(v []float64) *stats.Summary {
	var s stats.Summary
	for _, x := range v {
		s.Add(x)
	}
	return &s
}

func median(v []float64) float64 { return summarize(v).Percentile(50) }

// fidelityReps is how many leading reps define a measurement's simulated
// metrics and sim_digest. Every measurement runs at least this many,
// however short its time budget, so at a fixed seed those values never
// depend on how many reps the host had time for. Where one rep takes
// seconds the first alone decides (paper-quick's FCT statistic is pinned
// to one seed anyway).
func fidelityReps(w workloadSpec) int {
	if w.longReps {
		return 1
	}
	return 4
}

// subSeed derives rep i's workload seed from the measurement's seed.
// Every rep draws fresh inputs: host time on the fat-trees moves by
// +-5-15% with the inputs alone (the calendar queue's bucket width is
// chaotic in them), so a run that repeated one draw would report that
// draw's luck, and two seeds would disagree by more than any bound. The
// median over a run's draws does not.
func subSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i) }

// measure runs reps of cfg.Workload until cfg.Seconds have passed (a
// further rep starts only if at least half of it fits) and reduces them.
func measure(ctx context.Context, cfg measureConfig, run repRunner) (*measurement, error) {
	w, err := findWorkload(cfg.Workload)
	if err != nil {
		return nil, err
	}
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return nil, fmt.Errorf("create output directory: %w", err)
	}
	rep := func(variant string, i int) (*repResult, float64, error) {
		return run(ctx, repConfig{
			Workload: cfg.Workload, Variant: variant, Seed: subSeed(cfg.Seed, i), Scale: cfg.Scale, OutDir: cfg.OutDir,
		})
	}
	m := &measurement{Workload: cfg.Workload, Seed: cfg.Seed, Trace: cfg.Trace, Metrics: map[string]metricValue{}}

	var ref *repResult
	if cfg.Trace && w.ref != nil {
		if ref, _, err = rep(variantRef, 0); err != nil {
			return nil, err
		}
		m.absorb(ref)
	}

	var plain, traced []*repResult
	var setups []float64
	start := time.Now()
	budget := time.Duration(cfg.Seconds * float64(time.Second))
	fidelity := fidelityReps(w)
	for i := 0; ; i++ {
		p, setup, err := rep(variantPlain, i)
		if err != nil {
			return nil, err
		}
		plain, setups = append(plain, p), append(setups, setup)
		m.absorb(p)
		if cfg.Trace {
			t, _, err := rep(variantTraced, i)
			if err != nil {
				return nil, err
			}
			traced = append(traced, t)
			m.absorb(t)
			m.check("determinism.traced", t.Digest == p.Digest && t.Events == p.Events,
				"traced rep %d (digest %s, %d events) differs from the plain one (%s, %d): tracing perturbed the simulation",
				i, t.Digest, t.Events, p.Digest, p.Events)
		}
		elapsed := time.Since(start)
		if len(plain) >= fidelity && elapsed+elapsed/time.Duration(2*len(plain)) >= budget {
			break
		}
	}
	if ref != nil && w.refIsTwin {
		m.check("determinism.reference", ref.Digest == plain[0].Digest,
			"reference run digest %s differs from the plain run's %s on the same inputs", ref.Digest, plain[0].Digest)
	}

	m.Reps, m.Sizes = len(plain), plain[0].Sizes
	h := sha256.New()
	for _, p := range plain[:fidelity] {
		h.Write([]byte(p.Digest))
	}
	m.Digest = hex.EncodeToString(h.Sum(nil)[:8])

	if !cfg.Trace {
		samples := map[string][]float64{}
		for i, p := range plain {
			samples["wall_s"] = append(samples["wall_s"], p.WallS)
			samples["ops_per_s"] = append(samples["ops_per_s"], ratio(float64(p.Finished), p.WallS))
			samples["setup_s"] = append(samples["setup_s"], setups[i])
			samples["peak_rss_mb"] = append(samples["peak_rss_mb"], p.PeakRSSMB)
			if i < fidelity {
				samples["fct_mean_us"] = append(samples["fct_mean_us"], p.FCTMeanUs)
				samples["fct_p95_us"] = append(samples["fct_p95_us"], p.FCTP95Us)
			}
		}
		for _, spec := range endToEnd {
			v := metricValue{Unit: spec.Unit, Samples: samples[spec.Name]}
			if simulated(spec) {
				v.Value = summarize(v.Samples).Mean()
			} else {
				v.Value = median(v.Samples)
			}
			m.Metrics[spec.Name] = v
		}
		return m, nil
	}

	// Per-layer: counts and simulated values come from the first pair
	// (one fixed draw, so they repeat exactly at a fixed seed); host
	// timings are medians over all pairs.
	samples := map[string][]float64{}
	for i := range plain {
		var r *repResult
		if i == 0 {
			r = ref
		}
		for name, v := range layerMetrics(w, plain[i], traced[i], r) {
			samples[name] = append(samples[name], v)
		}
	}
	for _, spec := range perLayer {
		v := metricValue{Unit: spec.Unit, Samples: samples[spec.Name]}
		switch {
		case len(v.Samples) == 0:
		case spec.Exact || simulated(spec):
			v.Value = v.Samples[0]
		default:
			v.Value = median(v.Samples)
		}
		m.Metrics[spec.Name] = v
	}
	return m, nil
}

// layerMetrics merges one plain/traced pair (and, for the pair it shares
// inputs with, the reference rep) into one per-layer metric set. Whatever the plain rep measured wins: the
// traced rep supplies only what needs its wrappers and counters.
func layerMetrics(w workloadSpec, plain, traced, ref *repResult) map[string]float64 {
	m := map[string]float64{}
	for k, v := range traced.Layer {
		m[k] = v
	}
	for k, v := range plain.Layer {
		m[k] = v
	}
	m["bench.trace_overhead_ratio"] = ratio(traced.WallS, plain.WallS)
	// The queue's own cost: replay minus the same loop over a stream with
	// nothing to sort, scaled to the plain run's events, as a share of
	// its CPU time (shard workers overlap, so wall would overstate it).
	if own := m["sim.replay_ns_per_event"] - m["sim.replay_floor_ns_per_event"]; own > 0 {
		m["sim.queue_share"] = ratio(own*float64(plain.Events), plain.Layer["host.cpu_s"]*1e9)
	}
	if ref != nil {
		w.ref(m, plain, ref)
	}
	return m
}
