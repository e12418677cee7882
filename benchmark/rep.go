package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pmsb/internal/core"
	"pmsb/internal/ecn"
	"pmsb/internal/sim"
	"pmsb/internal/stats"
	"pmsb/internal/topo"
	"pmsb/internal/transport"
	"pmsb/internal/units"
	"pmsb/internal/workload"
)

// One rep is one complete run of one workload: pre-roll, set-up, the
// timed phase, verification. The measuring parent runs every rep in a
// fresh child process, so peak RSS, the packet pool and the experiment
// package's process-global sweep cache start clean each time; tests
// call runRep in-process.

// Rep variants.
const (
	variantPlain  = "plain"  // tracing off: the source of every end-to-end metric
	variantTraced = "traced" // wrappers, taps and counters on
	variantRef    = "ref"    // the workload's reference run (serial / untraced / calibrate)
)

// repConfig selects one rep.
type repConfig struct {
	Workload string
	Variant  string
	Seed     int64
	// Scale multiplies flow counts; 1 is the contract size. Tests run
	// smaller.
	Scale float64
	// OutDir receives the spans file and the obs workload's trace file.
	OutDir string
}

// check is one verified property of a rep's outputs.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// repResult is what a rep reports to the measuring parent.
type repResult struct {
	Workload string         `json:"workload"`
	Variant  string         `json:"variant"`
	Seed     int64          `json:"seed"`
	Sizes    map[string]int `json:"sizes"`
	// TimedStartUnixNano lets the parent charge process start-up to
	// setup_s; SetupS is the in-process share (rep start to timed phase).
	TimedStartUnixNano int64   `json:"timed_start_unix_nano"`
	SetupS             float64 `json:"setup_s"`
	WallS              float64 `json:"wall_s"`
	// Units is the number of work units the inputs define, Finished how
	// many completed before the horizon.
	Units     int     `json:"units"`
	Finished  int     `json:"finished"`
	Checks    []check `json:"checks"`
	FCTMeanUs float64 `json:"fct_mean_us"`
	FCTP95Us  float64 `json:"fct_p95_us"`
	PeakRSSMB float64 `json:"peak_rss_mb"`
	// Digest fingerprints the simulated outcome; it must not depend on
	// the variant, the host or the run.
	Digest string `json:"sim_digest"`
	// Events is the number of engine events executed in the timed phase.
	Events uint64             `json:"events"`
	Layer  map[string]float64 `json:"layer"`
}

func (r *repResult) check(name string, ok bool, format string, args ...any) {
	c := check{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
	}
	r.Checks = append(r.Checks, c)
}

// repEnv is the state a workload's run function works with.
type repEnv struct {
	cfg   repConfig
	res   *repResult
	tr    *tracer // nil unless the variant is traced
	start time.Time
	// account is the traced variant's uninstrumented twin fabric, alive
	// from buildPhase to install (allocation accounting only).
	account *fabric

	timed time.Time
	ms0   runtime.MemStats
	cpu0  time.Duration
}

func (e *repEnv) traced() bool { return e.tr != nil }

// scaled applies the rep's scale to a contract-size count.
func (e *repEnv) scaled(n int) int {
	v := int(math.Round(float64(n) * e.cfg.Scale))
	if v < 1 {
		v = 1
	}
	return v
}

// beginTimed closes set-up and opens the timed phase.
func (e *repEnv) beginTimed() {
	runtime.ReadMemStats(&e.ms0)
	e.cpu0 = cpuTime()
	now := time.Now()
	e.res.SetupS = now.Sub(e.start).Seconds()
	e.res.TimedStartUnixNano = now.UnixNano()
	e.timed = now
}

// endTimed closes the timed phase and fills the host account. events is
// the number of engine events the phase executed.
func (e *repEnv) endTimed(events uint64) {
	wall := time.Since(e.timed)
	cpu := cpuTime() - e.cpu0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	e.tr.phase(layerBench, opTimed, e.timed)

	e.res.WallS = wall.Seconds()
	e.res.Events = events
	m := e.res.Layer
	mallocs := float64(ms.Mallocs - e.ms0.Mallocs)
	m["host.mallocs"] = mallocs
	m["host.mallocs_per_kevent"] = ratio(mallocs*1000, float64(events))
	m["host.gc_cycles"] = float64(ms.NumGC - e.ms0.NumGC)
	m["host.gc_pause_ms"] = float64(ms.PauseTotalNs-e.ms0.PauseTotalNs) / 1e6
	m["host.heap_inuse_mb"] = float64(ms.HeapInuse) / (1 << 20)
	m["host.cpu_s"] = cpu.Seconds()
	m["host.cpu_util"] = ratio(cpu.Seconds(), wall.Seconds())
	m["sim.events"] = float64(events)
	m["sim.ns_per_event"] = ratio(float64(wall), float64(events))
}

// setFCT fills the FCT metrics from the finished flows' completion
// times, with the repository's own mean and percentile rule
// (stats.Summary, as the paper experiments' FCT tables use).
func (e *repEnv) setFCT(fcts []time.Duration) {
	if len(fcts) == 0 {
		return
	}
	var s stats.Summary
	for _, d := range fcts {
		s.Add(float64(d) / 1e3) // microseconds
	}
	e.res.FCTMeanUs = s.Mean()
	e.res.FCTP95Us = s.Percentile(95)
	e.res.Layer["transport.fct_samples"] = float64(s.Count())
	e.res.Layer["transport.fct_p50_us"] = s.Percentile(50)
}

// digest hashes the sorted FCT vector and the given totals.
func digest(fcts []time.Duration, totals ...int64) string {
	sorted := append([]time.Duration(nil), fcts...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	h := sha256.New()
	var b [8]byte
	for _, d := range sorted {
		binary.LittleEndian.PutUint64(b[:], uint64(d))
		h.Write(b[:])
	}
	for _, v := range totals {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// workloadRun is one workload's rep body.
type workloadRun func(e *repEnv) error

// runRep executes one rep of a named workload in this process.
func runRep(cfg repConfig) (*repResult, error) {
	w, err := findWorkload(cfg.Workload)
	if err != nil {
		return nil, err
	}
	e, err := execRep(cfg, w.run)
	if err != nil {
		return nil, err
	}
	return e.res, nil
}

// execRep runs the rep body under cfg and returns its environment
// (tests read the tracer from it).
func execRep(cfg repConfig, run workloadRun) (*repEnv, error) {
	switch cfg.Variant {
	case variantPlain, variantTraced, variantRef:
	default:
		return nil, fmt.Errorf("unknown variant %q", cfg.Variant)
	}
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}
	e := &repEnv{
		cfg:   cfg,
		start: time.Now(),
		res: &repResult{
			Workload: cfg.Workload, Variant: cfg.Variant, Seed: cfg.Seed,
			Sizes: map[string]int{}, Layer: map[string]float64{},
		},
	}
	preroll()
	if err := run(e); err != nil {
		return nil, fmt.Errorf("%s/%s: %w", cfg.Workload, cfg.Variant, err)
	}
	if e.tr != nil {
		e.res.Layer["bench.spans_recorded"] = float64(e.tr.spansRecorded() + 1)
		if cfg.OutDir != "" {
			if err := e.tr.writeSpans(filepath.Join(cfg.OutDir, cfg.Workload+".spans.jsonl")); err != nil {
				return nil, err
			}
		}
	}
	e.res.PeakRSSMB = peakRSSMB()
	return e, nil
}

// pmsbK is the paper's port threshold for 10 Gbps (12 packets).
var pmsbK = units.Packets(12)

// bufferBytes is the per-port buffer of the paper's set-up (250 packets).
var bufferBytes = units.Packets(250)

func newPMSB() ecn.Marker { return &core.PMSB{PortK: pmsbK} }

// preroll runs a small fixed simulation before every rep, so code is
// paged in and the packet, sender and event pools are warm when set-up
// starts, and so setup_s never sits in the microsecond range where it
// cannot repeat. It is part of setup_s.
func preroll() {
	eng := sim.NewEngine()
	ft := topo.NewFatTree(eng, topo.FatTreeConfig{K: 4, Ports: topo.PortProfile{
		Weights:     topo.EqualWeights(8),
		NewSched:    topo.DWRRFactory(eng),
		NewMarker:   newPMSB,
		BufferBytes: bufferBytes,
	}})
	specs := workload.Poisson(workload.PoissonConfig{
		Load: 0.3, LinkRate: 10 * units.Gbps, Hosts: ft.NumHosts(),
		Dist: workload.Fixed(50_000), Services: 8, NumFlows: 256, Seed: 1,
	})
	var fid transport.FlowIDGen
	for _, s := range specs {
		f := transport.NewFlow(eng, ft.Host(s.Src), ft.Host(s.Dst), fid.Next(), s.Service, s.Size,
			transport.Config{InitWindow: 16}, nil)
		f.Sender.StartAt(s.Start)
	}
	eng.RunUntil(specs[len(specs)-1].Start + time.Second)
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's resident-set high-water mark: VmHWM,
// or getrusage's figure where /proc does not give one.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
