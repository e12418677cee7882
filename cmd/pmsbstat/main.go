// Command pmsbstat analyzes an event trace exported by
// pmsbsim -tracefile, reconstructing the quantities the paper plots
// without rerunning the simulation:
//
//   - event counts by kind and trace segment count,
//   - per queue at every observed port: occupancy percentiles and the
//     packets it sent (and their bytes), had marked and dropped — the
//     port's own counters split by queue, the paper's per-queue share,
//   - the mark-rate timeline (marks and dequeues per time bin),
//   - the top flows by bytes with their congestion telemetry, and one
//     flow-completion-time summary line.
//
// Traces are in the binary trace format, the only one pmsbsim writes.
// Several files — e.g. the per-shard spill files of a sharded traced
// run — are analyzed as one trace. Every section streams column by
// column over the trace chunks without materializing events
// (obs.StreamStats): memory stays proportional to the topology, the
// flow count and the timeline's bins, not the trace — except the depth
// percentiles, which keep every sample to stay exact (-depth=false
// drops the per-queue table) — so full-run spill traces analyze in one
// pass, reading only the columns the requested sections need. -export
// prints the trace as JSONL (one object per event, kinds by name) on
// stdout instead of a report, for grep and jq; several files are merged
// into one deterministic timeline by (time, argument order, sequence
// number), one chunk per file at a time (obs.MergeTraces). JSONL is an
// output only.
//
// Examples:
//
//	pmsbsim -experiment fig8 -quick -tracefile fig8.bin
//	pmsbstat fig8.bin                      # full report
//	pmsbstat -bin 500us fig8.bin           # finer mark-rate bins
//	pmsbstat -top 3 -depth=false fig8.bin
//	pmsbstat -export fig8.bin | grep '"kind":"mark"' | head
//	pmsbsim -experiment fct-dwrr -quick -shards 2 -tracefile fct.bin
//	pmsbstat fct.shard0.bin fct.shard1.bin # a sharded trace, read as one
//
// Because trace events carry absolute occupancy, every statistic here
// is exact over the trace window even when the ring buffer wrapped and
// only the newest events survived (spill-backed traces never wrap).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"pmsb/internal/obs"
	obsrt "pmsb/internal/obs/runtime"
	"pmsb/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "pmsbstat:", err)
		os.Exit(1)
	}
}

// options are pmsbstat's flags.
type options struct {
	bin, since, until                     *time.Duration
	top                                   *int
	depth, marks, counts, export, runtime *bool
}

func newFlagSet() (*flag.FlagSet, options) {
	fs := flag.NewFlagSet("pmsbstat", flag.ContinueOnError)
	return fs, options{
		bin:     fs.Duration("bin", time.Millisecond, "bin width of the mark-rate timeline"),
		top:     fs.Int("top", 10, "flows to list in the per-flow table (by bytes; 0 disables)"),
		depth:   fs.Bool("depth", true, "print the per-queue table: occupancy percentiles and sent, marked and dropped packets"),
		marks:   fs.Bool("marks", true, "print the mark-rate timeline"),
		counts:  fs.Bool("counts", true, "print event counts by kind"),
		since:   fs.Duration("since", 0, "analyze only events at or after this virtual time"),
		until:   fs.Duration("until", 0, "analyze only events at or before this virtual time (0 = end of trace)"),
		export:  fs.Bool("export", false, "print the (merged, -since/-until filtered) events as JSONL on stdout instead of a report"),
		runtime: fs.Bool("runtime", false, "treat the argument as a pmsbsim -runtimestats dump and explain the run (shard imbalance, null-advance overhead, the event queue's geometry, longest chain walk and migrations)"),
	}
}

func run(args []string, stdout io.Writer) error {
	fs, o := newFlagSet()
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: pmsbstat [flags] trace.bin [more traces...]")
		fmt.Fprintln(fs.Output(), "       pmsbstat -runtime run.rtstats")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return nil
		}
		return err
	}
	if err := refuseMoot(fs, o); err != nil {
		return err
	}
	if *o.bin <= 0 {
		return fmt.Errorf("-bin %v: the mark-rate bin width must be positive", *o.bin)
	}
	if fs.NArg() < 1 {
		fs.Usage()
		return fmt.Errorf("at least one trace file is required")
	}
	if *o.runtime {
		if fs.NArg() != 1 {
			return fmt.Errorf("-runtime takes exactly one dump file (got %d)", fs.NArg())
		}
		return runtimeReport(stdout, fs.Arg(0))
	}

	lo, hi := *o.since, *o.until
	if hi == 0 {
		hi = 1<<63 - 1
	}
	if hi < lo {
		return fmt.Errorf("-until %v precedes -since %v", *o.until, *o.since)
	}
	var n int
	var err error
	if *o.export {
		n, err = exportTraces(stdout, fs.Args(), lo, hi)
	} else {
		opt := obs.StreamOptions{Counts: *o.counts, Depths: *o.depth, Flows: *o.top > 0, Since: lo, Until: hi}
		if *o.marks {
			opt.MarkBin = *o.bin
		}
		n, err = report(stdout, fs.Args(), opt, *o.top)
	}
	if err != nil || n > 0 {
		return err
	}
	traces := strings.Join(fs.Args(), ", ")
	if *o.since != 0 || *o.until != 0 {
		return fmt.Errorf("trace %s holds no events in [%v, %v]", traces, lo, time.Duration(hi))
	}
	return fmt.Errorf("trace %s holds no events", traces)
}

// reportFlags shape the report; -export prints events instead of a
// report, and -runtime reads a runtime dump, not a trace.
var reportFlags = map[string]bool{"bin": true, "top": true, "depth": true, "marks": true, "counts": true}

// refuseMoot refuses a flag set next to a mode that would ignore it:
// the report flags next to -export, and every other flag next to
// -runtime.
func refuseMoot(fs *flag.FlagSet, o options) (err error) {
	fs.Visit(func(fl *flag.Flag) {
		switch name := fl.Name; {
		case err != nil:
		case *o.runtime && name != "runtime":
			err = fmt.Errorf("-%s does not apply to -runtime, which reads a runtime dump", name)
		case *o.export && reportFlags[name]:
			err = fmt.Errorf("-%s does not apply to -export, which prints events, not a report", name)
		}
	})
	return err
}

// report reduces the traces in one streamed pass and prints the
// selected sections; it returns the in-range event count and prints
// nothing when that is 0.
func report(w io.Writer, paths []string, opt obs.StreamOptions, top int) (int, error) {
	st := obs.NewStreamStats(opt)
	for _, path := range paths {
		if err := reduceTrace(st, path); err != nil {
			return 0, err
		}
	}
	if st.Events == 0 {
		return 0, nil
	}

	fmt.Fprintf(w, "# trace: %d events, %s span", st.Events, st.MaxT-st.MinT)
	if segs := st.Segments; segs > 1 {
		fmt.Fprintf(w, ", %d segments (virtual time restarts; multi-run trace)", segs)
	}
	fmt.Fprintln(w)

	if st.Kinds != nil {
		fmt.Fprintln(w, "\n## events by kind")
		for _, k := range obs.Kinds() {
			if n, ok := st.Kinds[k]; ok {
				fmt.Fprintf(w, "%-12s\t%d\n", k, n)
			}
		}
	}

	if st.Depths != nil {
		fmt.Fprintln(w, "\n## queue depth (bytes sampled at enqueue/dequeue) and packets sent, marked, dropped")
		fmt.Fprintln(w, "node\tport\tqueue\tsamples\tmean\tp50\tp90\tp99\tmax\ttx_pkts\ttx_bytes\tmarks\tdrops")
		for _, k := range st.DepthKeys() {
			q := st.Depths[k]
			depth := "-\t-\t-\t-\t-" // a queue that only dropped
			if q.Count() > 0 {
				depth = fmt.Sprintf("%.0f\t%.0f\t%.0f\t%.0f\t%.0f",
					q.Mean(), q.Percentile(50), q.Percentile(90), q.Percentile(99), q.Max())
			}
			fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%s\t%d\t%d\t%d\t%d\n",
				k.Node, k.Port, k.Queue, q.Count(), depth, q.TxPackets, q.TxBytes, q.Marks, q.Drops)
		}
	}

	if bin := opt.MarkBin; bin > 0 {
		fmt.Fprintf(w, "\n## mark rate per %s bin (marks / dequeued packets)\n", bin)
		fmt.Fprintln(w, "t_ms\tmarks\tdequeues\tmark_frac")
		bins := max(st.Marks.Bins(), st.Dequeues.Bins())
		for i := 0; i < bins; i++ {
			m, d := st.Marks.Value(i), st.Dequeues.Value(i)
			frac := 0.0
			if d > 0 {
				frac = m / d
			}
			fmt.Fprintf(w, "%.3f\t%.0f\t%.0f\t%.3f\n",
				float64(int64(bin)*int64(i))/1e6, m, d, frac)
		}
	}

	if st.Flows != nil {
		fmt.Fprintf(w, "\n## top %d flows by bytes\n", top)
		fmt.Fprintln(w, "flow\tservice\tbytes\tmarks\tcuts\tretx\trtos\talpha\tfct")
		all := st.Flows.TopBytes(-1)
		var fcts stats.Summary
		for i, r := range all {
			fct := "-"
			if r.Finished {
				fct = r.FCT.String()
				fcts.Add(float64(r.FCT))
			}
			if i < top {
				fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d\t%d\t%d\t%.4f\t%s\n",
					r.Flow, r.Service, r.Bytes, r.MarksSeen,
					r.CwndCuts, r.Retransmits, r.RTOs, r.LastAlpha, fct)
			}
		}
		fmt.Fprintf(w, "# fct: %d of %d flows finished", fcts.Count(), len(all))
		if fcts.Count() > 0 {
			ns := func(v float64) time.Duration { return time.Duration(v) }
			fmt.Fprintf(w, ", mean %v, p50 %v, p99 %v, max %v",
				ns(fcts.Mean()), ns(fcts.Percentile(50)), ns(fcts.Percentile(99)), ns(fcts.Max()))
		}
		fmt.Fprintln(w)
	}
	return st.Events, nil
}

// reduceTrace folds one binary trace file into the accumulator.
func reduceTrace(st *obs.StreamStats, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("open trace: %w", err)
	}
	defer f.Close()
	if err := st.Reduce(f); err != nil {
		return fmt.Errorf("read trace %s: %w", path, err)
	}
	return nil
}

// exportTraces prints the merged in-range events of the traces as JSONL
// and returns how many it printed.
func exportTraces(w io.Writer, paths []string, since, until time.Duration) (int, error) {
	rs := make([]io.Reader, len(paths))
	for i, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return 0, fmt.Errorf("open trace: %w", err)
		}
		defer f.Close()
		rs[i] = f
	}
	sw := obs.NewSpillWriter(w, obs.FormatJSONL)
	err := obs.MergeTraces(rs, since, until, func(ev *obs.Event) error {
		return sw.Spill([]obs.Event{*ev})
	})
	if err != nil {
		return 0, fmt.Errorf("read trace %s: %w", strings.Join(paths, ", "), err)
	}
	return int(sw.Spilled()), sw.Close()
}

// runtimeReport renders a pmsbsim -runtimestats dump as a human
// explanation of the run.
func runtimeReport(w io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("open runtime dump: %w", err)
	}
	defer f.Close()
	vals, err := obsrt.ParseDump(f)
	if err != nil {
		return fmt.Errorf("read runtime dump %s: %w", path, err)
	}
	if len(vals) == 0 {
		return fmt.Errorf("runtime dump %s holds no metrics", path)
	}
	return obsrt.Report(w, vals)
}
