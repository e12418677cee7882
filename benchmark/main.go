// Command benchmark is the repository's benchmark: six named workloads,
// the end-to-end metrics a user of the simulator sees, and a traced run
// that attributes the time to layers. BENCHMARK.json at the repository
// root names everything it reports; README.md explains it.
//
// Contract mode (what BENCHMARK.json's command runs):
//
//	benchmark --workload NAME --seed N --seconds S --trace 0|1
//
// prints every metric by name and unit, then one JSON object as the
// last line of standard output.
//
// Report mode:
//
//	benchmark run -out FILE [-seed N] [-workload NAME] [-trace] [-seconds S]
//	benchmark compare [-force] A.json B.json
//	benchmark spec            # renders BENCHMARK.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"
)

// defaultOutDir holds spans and scratch trace files; it sits beside the
// build output so one .gitignore line covers both.
const defaultOutDir = ".bench_build/out"

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var err error
	switch {
	case len(os.Args) > 1 && os.Args[1] == "rep":
		err = repMain(os.Args[2:])
	case len(os.Args) > 1 && os.Args[1] == "run":
		err = runMain(ctx, os.Args[2:])
	case len(os.Args) > 1 && os.Args[1] == "compare":
		err = compareMain(os.Args[2:])
	case len(os.Args) > 1 && os.Args[1] == "spec":
		var doc []byte
		if doc, err = benchmarkJSON(); err == nil {
			_, err = os.Stdout.Write(doc)
		}
	default:
		err = contractMain(ctx, os.Args[1:])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// repMain is the child side of spawnRep: one rep, result on stdout.
func repMain(args []string) error {
	fs := flag.NewFlagSet("rep", flag.ContinueOnError)
	var cfg repConfig
	fs.StringVar(&cfg.Workload, "workload", "", "workload name")
	fs.StringVar(&cfg.Variant, "variant", variantPlain, "plain, traced or ref")
	fs.Int64Var(&cfg.Seed, "seed", 1, "workload seed")
	fs.Float64Var(&cfg.Scale, "scale", 1, "flow-count scale")
	fs.StringVar(&cfg.OutDir, "out", defaultOutDir, "directory for spans and scratch files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	res, err := runRep(cfg)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// contractMain measures one workload and prints the contract's result
// object as the last line of standard output.
func contractMain(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	cfg := measureConfig{Scale: 1}
	trace := 0
	fs.StringVar(&cfg.Workload, "workload", "", "workload name (see BENCHMARK.json)")
	fs.Int64Var(&cfg.Seed, "seed", 1, "workload seed")
	fs.Float64Var(&cfg.Seconds, "seconds", runSeconds, "how long to measure")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics from plain runs; 1: per-layer metrics from traced runs")
	fs.StringVar(&cfg.OutDir, "out", defaultOutDir, "directory for spans and scratch files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	cfg.Trace = trace != 0
	m, err := measure(ctx, cfg, spawnRep)
	if err != nil {
		return err
	}
	printMeasurement(m)
	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{Correct: m.Failed == 0, Attempted: m.Attempted, Failed: m.Failed, Metrics: map[string]metricValue{}}
	for name, v := range m.Metrics {
		v.Samples = nil // the contract's line carries value and unit only
		out.Metrics[name] = v
	}
	return json.NewEncoder(os.Stdout).Encode(out)
}

// printMeasurement lists every metric by name with its value and unit,
// then what failed.
func printMeasurement(m *measurement) {
	kind := "end-to-end, plain runs"
	if m.Trace {
		kind = "per-layer, traced runs"
	}
	fmt.Printf("# %s seed %d: %d reps, %s, sim_digest %s\n", m.Workload, m.Seed, m.Reps, kind, m.Digest)
	names := make([]string, 0, len(m.Metrics))
	for name := range m.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := m.Metrics[name]
		fmt.Printf("%-34s %16.6g %s\n", name, v.Value, v.Unit)
	}
	fmt.Printf("# attempted %d, failed %d\n", m.Attempted, m.Failed)
	for _, f := range m.Failures {
		fmt.Printf("# FAIL %s: %s\n", f.Name, f.Detail)
	}
}
