// Command pmsbsim regenerates the PMSB paper's tables and figures.
//
// Usage:
//
//	pmsbsim -list                      # enumerate experiments
//	pmsbsim -experiment fig9           # run one experiment, print TSV
//	pmsbsim -all                       # run everything
//	pmsbsim -all -quick -jobs 8        # fan experiments across 8 workers
//	pmsbsim -experiment fct-dwrr -quick -seed 7
//	pmsbsim -experiment fig11 -series  # include plot-ready time series
//	pmsbsim -experiment fig9 -format json -out fig9.json
//	pmsbsim -experiment fig8 -tracefile fig8.bin -metrics fig8.metrics
//
// Two subcommands describe the run by flags of their own (-h lists
// them) and share the output and observer flags above: flow runs flow
// groups into one dumbbell bottleneck (per-queue throughput against the
// weighted fair share, Jain index, marking, RTT), replay runs a CSV flow
// trace on the 48-host leaf-spine (FCT statistics, per flow with -flows).
//
//	pmsbsim flow -groups 1x0,8x1 -sched wfq -marker pmsb -portk 16
//	pmsbsim replay -gen 500 > trace.csv       # write a sample trace
//	pmsbsim replay -trace trace.csv -marker tcn -flows flows.csv
//
// TSV output carries '#'-prefixed notes with the paper-shape
// observations and ends with a '# summary' manifest block (per-
// experiment wall time and event counts; suppress with -summary=false).
// JSON output is the full structured result: a bare object for a single
// experiment, a JSON array when more than one experiment runs.
//
// Experiments are independent simulations, so -jobs N runs them (and,
// within a randomized sweep, the -repeats seeds) in parallel; the
// output payload is byte-identical at any job count because every
// engine is deterministic and results are reassembled in registration
// order. Only the wall times in the summary block vary.
//
// -tracefile and -metrics enable the observability layer: the run's
// event trace is written in the compact binary format (pmsbstat
// analyzes it; pmsbstat -export turns it into JSONL for grep/jq) and
// the metrics registry as a name<TAB>value dump. The trace ring spills
// into the file as it fills, so the file is the complete event stream
// at any -tracebuf. A bus is unsynchronized, so
// tracing requires a single experiment with -repeats 1; sharded runs
// are supported by giving every shard its own bus and spill file
// (trace.shard0.bin, trace.shard1.bin, ...) that pmsbstat merges
// deterministically.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"pmsb/internal/experiment"
	"pmsb/internal/obs"
	obsrt "pmsb/internal/obs/runtime"
	"pmsb/internal/pkt"
	"pmsb/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pmsbsim:", err)
		os.Exit(1)
	}
}

// plan is what a mode asks run to simulate. No specs: writing to w was
// all there was to do (-list, replay -gen).
type plan struct {
	specs []experiment.Spec
	opt   experiment.Options
	jobs  int
}

// A mode registers its own flags on fs and returns the function run
// calls once they are parsed; w is where the tables go.
type mode func(fs *flag.FlagSet) func(w io.Writer) (plan, error)

func run(args []string, stdout io.Writer) error {
	name, mode := "pmsbsim", experimentMode
	if len(args) > 0 && args[0] == "flow" {
		name, mode, args = "pmsbsim flow", flowMode, args[1:]
	} else if len(args) > 0 && args[0] == "replay" {
		name, mode, args = "pmsbsim replay", replayMode, args[1:]
	}
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	planFor := mode(fs)
	var (
		series    = fs.Bool("series", false, "include plot-ready time series in the output")
		format    = fs.String("format", "tsv", "output format: tsv or json")
		out       = fs.String("out", "", "write output to this file instead of stdout")
		summary   = fs.Bool("summary", true, "append the run manifest as a trailing '# summary' block (tsv only)")
		cpuprof   = fs.String("cpuprofile", "", "write a CPU profile of the run to this file (inspect with 'go tool pprof')")
		memprof   = fs.String("memprofile", "", "write a heap profile (taken after the run, post-GC) to this file")
		tracefile = fs.String("tracefile", "", "write the observability event trace to this file in the binary trace format (single experiment only, one worker per shard; a sharded run writes per-shard spill files name.shardI.ext)")
		tracebuf  = fs.Int("tracebuf", 1<<20, "trace ring capacity in events; full rings spill to -tracefile, so the trace is lossless at any value")
		metrics   = fs.String("metrics", "", "write the metrics registry dump to this file (single experiment only, unsharded)")
		rtstats   = fs.String("runtimestats", "", "write the simulator's runtime self-profile (coordinator/scheduler/pool counters, name<TAB>value dump; read with pmsbstat -runtime) to this file (single experiment only)")
	)
	var progress progressFlag
	fs.Var(&progress, "progress", "stream live progress as JSON lines on stderr; give an interval (-progress=250ms) or use the 1s default (single experiment only; results are unaffected)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			// -h/-help is a successful invocation: the FlagSet already
			// printed the usage text.
			return nil
		}
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *format != "tsv" && *format != "json" {
		return fmt.Errorf("unknown format %q (want tsv or json)", *format)
	}

	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			return fmt.Errorf("create cpu profile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("start cpu profile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprof != "" {
		// The heap snapshot is taken on the way out so it reflects the
		// run's live set, not startup state; a GC first removes dead
		// objects so the profile shows retained memory.
		defer func() {
			f, err := os.Create(*memprof)
			if err != nil {
				fmt.Fprintln(os.Stderr, "pmsbsim: create mem profile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "pmsbsim: write mem profile:", err)
			}
		}()
	}

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return fmt.Errorf("create output: %w", err)
		}
		defer f.Close()
		w = f
	}

	p, err := planFor(w)
	if err != nil || len(p.specs) == 0 {
		return err
	}
	specs, opt, jobs, shards := p.specs, p.opt, p.jobs, max(p.opt.Shards, 1)
	// Runtime introspection (-progress, -runtimestats) observes a single
	// simulation, so it carries the same one-experiment restriction as
	// tracing. Neither changes a single simulated byte: the monitor is
	// read-only published state and the runtime counters are side
	// channels (differential-tested).
	var stopSampler func()
	if progress.set || *rtstats != "" {
		if len(specs) != 1 {
			return fmt.Errorf("-progress/-runtimestats require exactly one experiment (got %d)", len(specs))
		}
		if opt.Repeats > 1 {
			return fmt.Errorf("-progress/-runtimestats require -repeats 1 (got %d)", opt.Repeats)
		}
		jobs = shards
		if progress.set {
			mon := sim.NewMonitor()
			opt.Monitor = mon
			sampler := obsrt.StartSampler(os.Stderr, mon, progress.interval)
			stopSampler = sampler.Stop
			defer sampler.Stop()
		}
		if *rtstats != "" {
			pkt.EnablePoolStats(true)
			defer pkt.EnablePoolStats(false)
			opt.Runtime = obsrt.NewCollector()
		}
	}

	tracing := *tracefile != "" || *metrics != ""
	var trace *traceSession
	if tracing {
		// A bus is not synchronized: restrict tracing to one experiment
		// so every bus is fed by one goroutine. Sharded runs are fine —
		// each shard gets its own bus and spill file, and the window
		// protocol's happens-before edges keep each bus
		// single-threaded.
		if len(specs) != 1 {
			return fmt.Errorf("-tracefile/-metrics require exactly one experiment (got %d)", len(specs))
		}
		if opt.Repeats > 1 {
			return fmt.Errorf("-tracefile/-metrics require -repeats 1 (got %d)", opt.Repeats)
		}
		if *metrics != "" && shards > 1 {
			// Each shard bus has its own registry; a merged dump is not
			// defined yet.
			return fmt.Errorf("-metrics requires -shards 1 (got %d)", shards)
		}
		jobs = shards // exactly the workers the one sharded run needs
		trace, err = openTraceSession(*tracefile, *tracebuf, shards, *metrics != "")
		if err != nil {
			return err
		}
		defer trace.cleanup()
		trace.apply(&opt)
	}
	// On failure results hold the completed prefix (everything before
	// the earliest failing experiment), which is still printed — the
	// same partial output a serial run would have produced.
	results, manifest, runErr := experiment.RunMany(specs, opt, jobs)
	if stopSampler != nil {
		// Emit the final progress line at completion, before the result
		// payload is printed.
		stopSampler()
	}
	if runErr == nil {
		noteUnapplied(os.Stderr, opt.Engine, shards, manifest)
	}
	if tracing && runErr == nil {
		if err := trace.finish(*metrics); err != nil {
			return err
		}
	}
	if *rtstats != "" && runErr == nil {
		if err := writeRuntimeStats(*rtstats, opt.Runtime); err != nil {
			return err
		}
	}
	if !*series {
		for _, res := range results {
			res.Series = nil
		}
	}
	switch *format {
	case "json":
		if err := writeJSON(w, results, len(specs) > 1); err != nil {
			return err
		}
	default:
		for _, res := range results {
			fmt.Fprint(w, res.TSV())
			fmt.Fprintln(w)
		}
		if runErr == nil && *summary {
			fmt.Fprint(w, manifest.Summary())
		}
	}
	return runErr
}

// experimentMode is the default mode: registered experiments by ID.
func experimentMode(fs *flag.FlagSet) func(w io.Writer) (plan, error) {
	var (
		id      = fs.String("experiment", "", "experiment ID (or comma-separated IDs) to run (see -list)")
		list    = fs.Bool("list", false, "list all experiments")
		all     = fs.Bool("all", false, "run every experiment")
		quick   = fs.Bool("quick", false, "shorter runs (reduced durations and flow counts)")
		seed    = fs.Int64("seed", 1, "random seed")
		repeats = fs.Int("repeats", 1, "repeat randomized sweeps with consecutive seeds and pool the samples")
		jobs    = fs.Int("jobs", runtime.NumCPU(), "max experiments simulated in parallel (payload is identical at any value)")
		shards  = fs.Int("shards", 1, "shard each large-scale simulation across this many parallel engines (a sharded run costs that many -jobs tokens; output is deterministic at any fixed value; experiments that ran narrower are named on stderr)")
		engine  = fs.String("engine", "packet", "simulation engine for the scenario and fct experiments: packet (ground truth) or flow (fluid fast path); experiments without a fluid form run packet and are named on stderr")
	)
	return func(w io.Writer) (plan, error) {
		var specs []experiment.Spec
		switch {
		case *list:
			for _, s := range experiment.List() {
				fmt.Fprintf(w, "%-16s %s\n", s.ID, s.Title)
			}
			return plan{}, nil
		case *all:
			specs = experiment.List()
		case *id != "":
			for _, one := range strings.Split(*id, ",") {
				s, err := experiment.Lookup(strings.TrimSpace(one))
				if err != nil {
					return plan{}, err
				}
				specs = append(specs, s)
			}
		default:
			fs.Usage()
			return plan{}, fmt.Errorf("one of -list, -all or -experiment is required (or a subcommand: flow, replay)")
		}

		if *shards < 1 {
			return plan{}, fmt.Errorf("-shards must be >= 1 (got %d)", *shards)
		}
		if *engine != "packet" && *engine != "flow" {
			return plan{}, fmt.Errorf("unknown engine %q (want packet or flow)", *engine)
		}
		return plan{specs, experiment.Options{
			Quick: *quick, Seed: *seed, Repeats: *repeats,
			Shards: *shards, Engine: *engine,
		}, *jobs}, nil
	}
}

// noteUnapplied says, in one line per option, which experiments did not
// run the way -engine and -shards asked: the manifest records the
// engine and shard count each one actually used. Not an error — -all
// with -shards N is legitimate — but never silent. Experiments that ran
// no simulation at all (table1) have nothing to apply an option to.
func noteUnapplied(w io.Writer, engine string, shards int, m *experiment.Manifest) {
	var offEngine, offShards []string
	for _, e := range m.Experiments {
		if e.Engine == "" {
			continue
		}
		if engine == "flow" && !strings.Contains(e.Engine, "flow") {
			offEngine = append(offEngine, e.ID)
		}
		if shards > 1 && e.Shards != shards {
			offShards = append(offShards, fmt.Sprintf("%s ran %d", e.ID, e.Shards))
		}
	}
	if len(offEngine) > 0 {
		fmt.Fprintf(w, "pmsbsim: -engine flow not applied, ran the packet engine: %s\n", strings.Join(offEngine, ", "))
	}
	if len(offShards) > 0 {
		fmt.Fprintf(w, "pmsbsim: -shards %d not applied as asked: %s\n", shards, strings.Join(offShards, ", "))
	}
}

// progressFlag is the -progress value: an optional-argument boolean
// flag (bare -progress means a 1s interval, -progress=250ms overrides).
type progressFlag struct {
	set      bool
	interval time.Duration
}

func (p *progressFlag) String() string {
	if !p.set {
		return ""
	}
	return p.interval.String()
}

func (p *progressFlag) IsBoolFlag() bool { return true }

func (p *progressFlag) Set(s string) error {
	p.set = true
	switch s {
	case "", "true":
		p.interval = time.Second
		return nil
	case "false":
		p.set = false
		return nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return fmt.Errorf("-progress wants a duration like 250ms: %w", err)
	}
	if d <= 0 {
		return fmt.Errorf("-progress interval must be positive (got %v)", d)
	}
	p.interval = d
	return nil
}

// writeRuntimeStats dumps the collected runtime self-profile as sorted
// name<TAB>value lines (the metrics dump format; pmsbstat -runtime
// turns it into a report).
func writeRuntimeStats(path string, coll *obsrt.Collector) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create runtimestats file: %w", err)
	}
	if _, err := coll.Snapshot().WriteTo(f); err != nil {
		f.Close()
		return fmt.Errorf("write runtimestats: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close runtimestats file: %w", err)
	}
	return nil
}

// traceSession owns the tracing plumbing of one run: one bus per shard,
// each with a ring that spills into its own trace file as it fills, so
// the exported trace is the complete event stream regardless of
// -tracebuf. finish drains the rings and closes the files; cleanup
// releases file handles if the run failed before finish.
type traceSession struct {
	buses  []*obs.Bus
	spills []*obs.SpillWriter
	files  []*os.File
	paths  []string
	done   bool
}

// openTraceSession creates the trace files and spill-backed buses.
// With shards > 1 each shard spills to tracefile's ShardTracePath
// derivative; a metrics-only session (tracefile == "") carries one
// ringless bus. When no metrics dump was requested the buses are
// trace-only (obs.NewTraceBus): nothing will read the per-port
// counters, so packet events skip them.
func openTraceSession(tracefile string, tracebuf, shards int, wantMetrics bool) (*traceSession, error) {
	s := &traceSession{}
	if tracefile == "" {
		s.buses = []*obs.Bus{obs.NewBus(0)} // metrics only: no event ring
		return s, nil
	}
	ringCap := tracebuf
	if ringCap < 1 {
		ringCap = 1
	}
	paths := []string{tracefile}
	if shards > 1 {
		paths = nil
		for i := 0; i < shards; i++ {
			paths = append(paths, obs.ShardTracePath(tracefile, i))
		}
	}
	for _, path := range paths {
		f, err := os.Create(path)
		if err != nil {
			s.cleanup()
			return nil, fmt.Errorf("create trace file: %w", err)
		}
		sw := obs.NewSpillWriter(f, obs.FormatBinary)
		bus := obs.NewTraceBus(ringCap)
		if wantMetrics {
			bus = obs.NewBus(ringCap)
		}
		bus.Ring().SetSpill(sw)
		s.buses = append(s.buses, bus)
		s.spills = append(s.spills, sw)
		s.files = append(s.files, f)
		s.paths = append(s.paths, path)
	}
	return s, nil
}

// apply attaches the session's buses to the run options: the shard-0
// bus is the serial/fallback bus, and a sharded session also publishes
// the full per-shard list.
func (s *traceSession) apply(opt *experiment.Options) {
	opt.Obs = s.buses[0]
	if len(s.buses) > 1 {
		opt.ObsShards = s.buses
	}
}

// finish drains every ring into its spill file, closes the files, and
// writes the metrics dump. After finish, cleanup is a no-op.
func (s *traceSession) finish(metrics string) error {
	s.done = true
	for i, bus := range s.buses {
		if bus.Ring() == nil {
			continue
		}
		if err := bus.Ring().FlushSpill(); err != nil {
			return fmt.Errorf("write trace %s: %w", s.paths[i], err)
		}
		if err := s.spills[i].Close(); err != nil {
			return fmt.Errorf("write trace %s: %w", s.paths[i], err)
		}
		if err := s.files[i].Close(); err != nil {
			return fmt.Errorf("close trace file %s: %w", s.paths[i], err)
		}
		// With a spill sink the ring never drops, so a nonzero count here
		// means events were silently lost (e.g. a spill write failed
		// mid-run); a truncated trace must fail the export, not pass as
		// complete.
		if n := bus.Ring().Dropped(); n > 0 {
			return fmt.Errorf("trace %s truncated: %d events dropped", s.paths[i], n)
		}
	}
	if metrics != "" {
		f, err := os.Create(metrics)
		if err != nil {
			return fmt.Errorf("create metrics file: %w", err)
		}
		if _, err := s.buses[0].Metrics().WriteTo(f); err != nil {
			f.Close()
			return fmt.Errorf("write metrics: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("close metrics file: %w", err)
		}
	}
	return nil
}

// cleanup closes any file handles a failed run left open. The partial
// trace files are left on disk for postmortems; deferred spill errors
// and dropped-event counts are surfaced on stderr so a failed run does
// not hide a damaged trace.
func (s *traceSession) cleanup() {
	if s.done {
		return
	}
	s.done = true
	for i, bus := range s.buses {
		r := bus.Ring()
		if r == nil {
			continue
		}
		path := "trace"
		if i < len(s.paths) {
			path = s.paths[i]
		}
		if err := r.SpillErr(); err != nil {
			fmt.Fprintf(os.Stderr, "pmsbsim: %s: deferred spill error: %v\n", path, err)
		}
		if n := r.Dropped(); n > 0 {
			fmt.Fprintf(os.Stderr, "pmsbsim: %s: %d trace events dropped\n", path, n)
		}
	}
	for _, f := range s.files {
		f.Close()
	}
}

// writeJSON emits one bare object for a single requested experiment
// (the historical format) and a single JSON array when several run, so
// multi-experiment output stays parseable by standard decoders.
func writeJSON(w io.Writer, results []*experiment.Result, array bool) error {
	if !array {
		if len(results) == 0 {
			return nil
		}
		body, err := results[0].JSON()
		if err != nil {
			return err
		}
		fmt.Fprint(w, body)
		return nil
	}
	b, err := json.MarshalIndent(results, "", "  ")
	if err != nil {
		return fmt.Errorf("marshal results: %w", err)
	}
	fmt.Fprintln(w, string(b))
	return nil
}
