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
//	pmsbsim -experiment fig8 -tracefile fig8.bin   # then: pmsbstat fig8.bin
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
// -shards and -repeats reach only the experiments that declare them
// (experiment.Spec.MaxShards, Randomized). Each is checked before
// anything is built: a lone experiment that cannot apply one is
// refused, and a list names on stderr the experiments that will run
// without it. Every experiment runs on the one engine it names: the
// packet engine, except that calibrate runs the flow-level fluid engine
// beside it and flow-scale runs the fluid engine alone.
//
// -tracefile enables the observability layer: the run's event trace is
// written in the compact binary format (pmsbstat analyzes it, per-queue
// tallies included; pmsbstat -export turns it into JSONL for grep/jq).
// The trace ring spills into the file as it fills, so the file is the
// complete event stream.
// Tracing requires a single experiment with -repeats 1; a sharded run
// gives every shard it runs on — -shards capped at what the topology
// partitions into — its own bus and spill file (trace.shard0.bin,
// trace.shard1.bin, ...) that pmsbstat merges deterministically.
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

// traceRing is the capacity, in events, of each spill-backed trace
// ring: one binary-writer chunk. A full ring drains into its file, so
// the trace bytes do not depend on the capacity; a chunk-sized ring
// keeps a traced run's memory near the untraced run's.
const traceRing = 1 << 13

// outputFlags are the output and observer flags every mode shares.
type outputFlags struct {
	series, summary                                   *bool
	format, out, cpuprof, memprof, tracefile, rtstats *string
	progress                                          progressFlag
}

// newFlagSet registers the mode args name (the default experiment
// mode, flow or replay) and the shared output flags on one FlagSet, and
// returns the arguments left to parse.
func newFlagSet(args []string) (*flag.FlagSet, func(io.Writer) (plan, error), *outputFlags, []string) {
	name, mode := "pmsbsim", experimentMode
	if len(args) > 0 && args[0] == "flow" {
		name, mode, args = "pmsbsim flow", flowMode, args[1:]
	} else if len(args) > 0 && args[0] == "replay" {
		name, mode, args = "pmsbsim replay", replayMode, args[1:]
	}
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	planFor := mode(fs)
	o := &outputFlags{
		series:    fs.Bool("series", false, "include plot-ready time series in the output"),
		format:    fs.String("format", "tsv", "output format: tsv or json"),
		out:       fs.String("out", "", "write output to this file instead of stdout"),
		summary:   fs.Bool("summary", true, "append the run manifest as a trailing '# summary' block (tsv only)"),
		cpuprof:   fs.String("cpuprofile", "", "write a CPU profile of the run to this file (inspect with 'go tool pprof')"),
		memprof:   fs.String("memprofile", "", "write a heap profile (taken after the run, post-GC) to this file"),
		tracefile: fs.String("tracefile", "", "write the observability event trace to this file in the binary trace format (single experiment only, one worker per shard; a sharded run writes per-shard spill files name.shardI.ext)"),
		rtstats:   fs.String("runtimestats", "", "write the simulator's runtime self-profile (coordinator/scheduler/pool counters, name<TAB>value dump; read with pmsbstat -runtime) to this file (single experiment only)"),
	}
	fs.Var(&o.progress, "progress", "stream live progress as JSON lines on stderr; give an interval (-progress=250ms) or use the 1s default (single experiment only; results are unaffected)")
	return fs, planFor, o, args
}

func run(args []string, stdout io.Writer) error {
	fs, planFor, o, args := newFlagSet(args)
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
	if *o.format != "tsv" && *o.format != "json" {
		return fmt.Errorf("unknown format %q (want tsv or json)", *o.format)
	}

	if *o.cpuprof != "" {
		f, err := os.Create(*o.cpuprof)
		if err != nil {
			return fmt.Errorf("create cpu profile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("start cpu profile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *o.memprof != "" {
		// The heap snapshot is taken on the way out so it reflects the
		// run's live set, not startup state; a GC first removes dead
		// objects so the profile shows retained memory.
		defer func() {
			f, err := os.Create(*o.memprof)
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
	if *o.out != "" {
		f, err := os.Create(*o.out)
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
	// The observers — tracing (-tracefile) and runtime
	// introspection (-progress, -runtimestats) — watch one simulation: a
	// bus is not synchronized, so each must be fed by one goroutine.
	// Sharded runs are fine — each shard gets its own bus and spill file,
	// and the window protocol's happens-before edges keep each bus
	// single-threaded. No observer changes a simulated byte
	// (differential-tested).
	tracing := *o.tracefile != ""
	if tracing || o.progress.set || *o.rtstats != "" {
		if len(specs) != 1 || opt.Repeats > 1 {
			return fmt.Errorf("-tracefile, -progress and -runtimestats require one experiment and -repeats 1 (got %d experiments, -repeats %d)",
				len(specs), opt.Repeats)
		}
		// Exactly the shards, and so the workers, the one run uses.
		shards = max(1, min(shards, specs[0].MaxShards))
		jobs = shards
	}
	var stopSampler func()
	if o.progress.set {
		mon := sim.NewMonitor()
		opt.Monitor = mon
		sampler := obsrt.StartSampler(os.Stderr, mon, o.progress.interval)
		stopSampler = sampler.Stop
		defer sampler.Stop()
	}
	if *o.rtstats != "" {
		pkt.EnablePoolStats(true)
		defer pkt.EnablePoolStats(false)
		opt.Runtime = obsrt.NewCollector()
	}
	var trace *traceSession
	if tracing {
		trace, err = openTraceSession(*o.tracefile, shards)
		if err != nil {
			return err
		}
		defer trace.cleanup()
		opt.Obs = trace.buses
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
	if tracing && runErr == nil {
		if err := trace.finish(); err != nil {
			return err
		}
	}
	if *o.rtstats != "" && runErr == nil {
		if err := writeDump(*o.rtstats, opt.Runtime.Snapshot()); err != nil {
			return fmt.Errorf("write runtimestats: %w", err)
		}
	}
	if !*o.series {
		for _, res := range results {
			res.Series = nil
		}
	}
	switch *o.format {
	case "json":
		if err := writeJSON(w, results, len(specs) > 1); err != nil {
			return err
		}
	default:
		for _, res := range results {
			fmt.Fprint(w, res.TSV())
			fmt.Fprintln(w)
		}
		if runErr == nil && *o.summary {
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
		repeats = fs.Int("repeats", 1, "repeat randomized sweeps with consecutive seeds and pool the samples; refused for a lone experiment that is not randomized")
		jobs    = fs.Int("jobs", runtime.NumCPU(), "max experiments simulated in parallel (payload is identical at any value)")
		shards  = fs.Int("shards", 1, "shard the fat-tree simulations across this many parallel engines, up to one pod per shard (a sharded run costs that many -jobs tokens; the tables are the serial ones); refused for a lone experiment that does not shard")
	)
	return func(w io.Writer) (plan, error) {
		var specs []experiment.Spec
		if *list && *all || (*list || *all) && *id != "" {
			return plan{}, fmt.Errorf("-list, -all and -experiment exclude each other")
		}
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
		if *shards > 1 {
			if err := refuseUnreached(specs, fmt.Sprintf("-shards %d", *shards), "does not shard",
				func(s experiment.Spec) bool { return s.MaxShards > 0 }); err != nil {
				return plan{}, err
			}
		}
		if *repeats > 1 {
			if err := refuseUnreached(specs, fmt.Sprintf("-repeats %d", *repeats), "is not randomized",
				func(s experiment.Spec) bool { return s.Randomized }); err != nil {
				return plan{}, err
			}
		}
		return plan{specs, experiment.Options{
			Quick: *quick, Seed: *seed, Repeats: *repeats, Shards: *shards,
		}, *jobs}, nil
	}
}

// refuseUnreached checks an option against the experiments asked for,
// before any is built: a lone experiment the option does not reach is
// an error, and a list names on stderr, in one line, the experiments
// that will run without it.
func refuseUnreached(specs []experiment.Spec, option, why string, reaches func(experiment.Spec) bool) error {
	var off []string
	for _, s := range specs {
		if !reaches(s) {
			off = append(off, s.ID)
		}
	}
	switch {
	case len(off) == 0:
	case len(specs) == 1:
		return fmt.Errorf("%s: %s %s", option, off[0], why)
	default:
		fmt.Fprintf(os.Stderr, "pmsbsim: %s will not apply to %s\n", option, strings.Join(off, ", "))
	}
	return nil
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

// writeDump writes a name<TAB>value dump — the runtime self-profile
// pmsbstat -runtime reports on — to path.
func writeDump(path string, dump io.WriterTo) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := dump.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceSession owns the tracing plumbing of one run: one bus per shard,
// each with a ring that spills into its own trace file as it fills, so
// the exported trace is the complete event stream. finish drains the rings and closes the files; cleanup
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
// derivative.
func openTraceSession(tracefile string, shards int) (*traceSession, error) {
	s := &traceSession{}
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
		bus := obs.NewTraceBus(traceRing)
		bus.Ring().SetSpill(sw)
		s.buses = append(s.buses, bus)
		s.spills = append(s.spills, sw)
		s.files = append(s.files, f)
		s.paths = append(s.paths, path)
	}
	return s, nil
}

// finish drains every ring into its spill file and closes the files.
// After finish, cleanup is a no-op.
func (s *traceSession) finish() error {
	s.done = true
	for i, bus := range s.buses {
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
		if err := r.SpillErr(); err != nil {
			fmt.Fprintf(os.Stderr, "pmsbsim: %s: deferred spill error: %v\n", s.paths[i], err)
		}
		if n := r.Dropped(); n > 0 {
			fmt.Fprintf(os.Stderr, "pmsbsim: %s: %d trace events dropped\n", s.paths[i], n)
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
