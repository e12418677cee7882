// Package experiment reproduces every table and figure of the PMSB
// paper's evaluation. Each experiment is registered under the paper's
// figure/table ID (fig1..fig27, table1, theorem41) plus combined sweep
// IDs (fct-dwrr, fct-wfq); cmd/pmsbsim runs them by name and
// bench_test.go exposes one benchmark per experiment.
package experiment

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"pmsb/internal/obs"
	obsrt "pmsb/internal/obs/runtime"
	"pmsb/internal/sim"
)

// Options tunes an experiment run.
type Options struct {
	// Quick shrinks durations and flow counts so the experiment
	// finishes in seconds (used by tests and benchmarks); the paper
	// shape must survive, absolute confidence intervals shrink.
	Quick bool
	// Seed seeds all randomness (default 1).
	Seed int64
	// Repeats runs the randomized large-scale sweeps this many times
	// with consecutive seeds and reports cross-seed means (default 1).
	// Deterministic experiments ignore it.
	Repeats int
	// Shards splits the fat-tree simulations of an experiment that
	// declares MaxShards across this many engines driven in parallel by
	// a sim.Coordinator (default 1 = serial), capped at what the
	// topology partitions into. A sharded run prints the serial tables.
	Shards int

	// Obs, when non-empty, traces the run: each switch port, marker and
	// transport is attached to entry i, the bus of the shard its node
	// lives on, and entry 0 is a serial run's bus. One bus is fed by
	// exactly one shard engine, which keeps every bus single-goroutine
	// and its event stream byte-identical to the same split traced
	// serially; a traced run wider than len(Obs) is refused. The buses
	// are not synchronized: trace one simulation at a time (RunMany
	// jobs=1, Repeats=1).
	Obs []*obs.Bus

	// Monitor, when non-nil, is attached to the run's engine or
	// coordinator so a progress sampler can stream live snapshots
	// (pmsbsim -progress). Like Obs it assumes one simulation: use with
	// a single experiment, Repeats=1.
	Monitor *sim.Monitor
	// Runtime, when non-nil, collects the simulator's self-observation:
	// coordinator runtime stats (EnableRuntimeStats is switched on for
	// the run), engine/scheduler self-profiles and pool counters
	// (pmsbsim -runtimestats). The collector is goroutine-safe, but the
	// dump is only meaningful for a single experiment.
	Runtime *obsrt.Collector

	// pool, set by RunMany, lets the repeat loops of randomized sweeps
	// borrow idle workers for per-seed fan-out (see eachRepeat).
	pool *workerPool
	// acct, set by RunMany, is the experiment's manifest row in the
	// making: events processed, engine and shard count actually used.
	acct *ledger
}

// obsFor returns the bus for a shard index, nil when the run is not
// traced. obsFor(0) is the serial-run bus.
func (o Options) obsFor(shard int) *obs.Bus {
	if shard < len(o.Obs) {
		return o.Obs[shard]
	}
	return nil
}

// tracing reports whether any observability bus is attached.
func (o Options) tracing() bool {
	return len(o.Obs) > 0
}

func (o Options) seed() int64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

func (o Options) repeats() int {
	if o.Repeats < 1 {
		return 1
	}
	return o.Repeats
}

func (o Options) shards() int {
	if o.Shards < 1 {
		return 1
	}
	return o.Shards
}

// tokenCost is the number of worker tokens one simulation of these
// options occupies: its shard count, capped at the pool size so a
// single run can always make progress.
func (o Options) tokenCost() int {
	n := o.shards()
	if o.pool != nil && n > o.pool.size {
		n = o.pool.size
	}
	return n
}

// Result is an experiment's output table: the rows/series the paper
// plots, the paper's claims checked against them, and free-form notes.
type Result struct {
	// ID is the experiment ID (e.g. "fig9").
	ID string `json:"id"`
	// Title describes the experiment.
	Title string `json:"title"`
	// Headers are column names.
	Headers []string `json:"headers"`
	// Rows are the data rows.
	Rows [][]string `json:"rows"`
	// Notes describe or explain the run (e.g. "port mark fraction =
	// 0.735"); they assert no paper claim.
	Notes []string `json:"notes,omitempty"`
	// Verdicts are the paper's claims, each computed once from the
	// experiment's own numbers.
	Verdicts []Verdict `json:"verdicts,omitempty"`
	// Series are plot-ready (x, y) traces for time-series figures
	// (buffer occupancy, throughput vs time).
	Series []Series `json:"series,omitempty"`
}

// Series is one named plot line.
type Series struct {
	// Name labels the line (e.g. "pmsb-dequeue").
	Name string `json:"name"`
	// XUnit / YUnit label the axes (e.g. "ms", "pkts").
	XUnit string `json:"xUnit"`
	YUnit string `json:"yUnit"`
	// X and Y are the coordinates (equal length).
	X []float64 `json:"x"`
	Y []float64 `json:"y"`
}

// Verdict is one paper claim checked against a run: what the paper
// says, what the run measured, the band or predicate the measurement
// must satisfy, and whether it does. Holds is computed from unrounded
// numbers; the other fields are display text.
type Verdict struct {
	Claim    string `json:"claim"`
	Paper    string `json:"paper"`
	Measured string `json:"measured"`
	Band     string `json:"band"`
	Holds    bool   `json:"holds"`
}

// String renders the verdict as TSV prints it, led by "holds" or
// "FAILS".
func (v Verdict) String() string {
	status := "FAILS"
	if v.Holds {
		status = "holds"
	}
	return fmt.Sprintf("%s: %s: measured %s, want %s (paper: %s)", status, v.Claim, v.Measured, v.Band, v.Paper)
}

// JSON renders the result as indented JSON.
func (r *Result) JSON() (string, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", fmt.Errorf("marshal result %s: %w", r.ID, err)
	}
	return string(b) + "\n", nil
}

// AddSeries appends a plot line.
func (r *Result) AddSeries(s Series) {
	r.Series = append(r.Series, s)
}

// AddRow appends a formatted row.
func (r *Result) AddRow(cells ...string) {
	r.Rows = append(r.Rows, cells)
}

// AddNote appends a formatted note.
func (r *Result) AddNote(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// verdict records a claim whose measurement holds or not.
func (r *Result) verdict(claim, paper, measured, band string, holds bool) {
	r.Verdicts = append(r.Verdicts, Verdict{Claim: claim, Paper: paper, Measured: measured, Band: band, Holds: holds})
}

// within records a claim that v lies in [lo, hi], each printed with
// format.
func (r *Result) within(claim, paper, format string, v, lo, hi float64) {
	r.verdict(claim, paper, fmt.Sprintf(format, v), fmt.Sprintf("["+format+", "+format+"]", lo, hi), v >= lo && v <= hi)
}

// atLeast records a claim that v >= lo, atMost one that v <= hi.
func (r *Result) atLeast(claim, paper, format string, v, lo float64) {
	r.verdict(claim, paper, fmt.Sprintf(format, v), fmt.Sprintf(">= "+format, lo), v >= lo)
}

func (r *Result) atMost(claim, paper, format string, v, hi float64) {
	r.verdict(claim, paper, fmt.Sprintf(format, v), fmt.Sprintf("<= "+format, hi), v <= hi)
}

// below records a claim that got is smaller than base, measured as the
// relative gap the paper quotes ("PMSB's RTT is 63.2% below ...").
func (r *Result) below(claim, paper string, got, base float64) {
	r.verdict(claim, paper, fmt.Sprintf("%.1f%% below", (1-got/base)*100), "> 0% below", got < base)
}

// TSV renders the result as a tab-separated table, its notes and
// verdicts as '#' lines, and any plot series.
func (r *Result) TSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s: %s\n", r.ID, r.Title)
	b.WriteString(strings.Join(r.Headers, "\t"))
	b.WriteByte('\n')
	for _, row := range r.Rows {
		b.WriteString(strings.Join(row, "\t"))
		b.WriteByte('\n')
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "# %s\n", n)
	}
	for _, v := range r.Verdicts {
		fmt.Fprintf(&b, "# %s\n", v)
	}
	for _, s := range r.Series {
		fmt.Fprintf(&b, "## series %s (%s vs %s)\n", s.Name, s.YUnit, s.XUnit)
		for i := range s.X {
			fmt.Fprintf(&b, "%g\t%g\n", s.X[i], s.Y[i])
		}
	}
	return b.String()
}

// Spec is a registered experiment.
type Spec struct {
	// ID is the lookup key (paper figure/table number).
	ID string
	// Title is a one-line description.
	Title string
	// Run executes the experiment.
	Run func(opt Options) (*Result, error)
	// MaxShards declares that the experiment's fat-tree packet runs
	// spread over Options.Shards engines, up to MaxShards (a k-ary
	// fat-tree partitions into k, one pod per shard), and print the
	// serial tables at any width; 0 means it runs serially. Only the
	// fat-tree shards (DESIGN.md section 8). Randomized declares that
	// Options.Repeats pools its samples over that many seeds. Other
	// experiments ignore the option, pmsbsim checks it against these
	// before anything runs, and the golden gate holds them to what the
	// manifest records.
	MaxShards  int
	Randomized bool
}

// registry returns all experiments, built lazily so each file
// contributes its specs via the builders list.
func registry() map[string]Spec {
	reg := make(map[string]Spec)
	for _, s := range allSpecs() {
		reg[s.ID] = s
	}
	return reg
}

// Lookup finds an experiment by ID.
func Lookup(id string) (Spec, error) {
	s, ok := registry()[id]
	if !ok {
		return Spec{}, fmt.Errorf("unknown experiment %q (use List for valid IDs)", id)
	}
	return s, nil
}

// List returns all experiment specs sorted by ID.
func List() []Spec {
	reg := registry()
	ids := make([]string, 0, len(reg))
	for id := range reg {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]Spec, 0, len(ids))
	for _, id := range ids {
		out = append(out, reg[id])
	}
	return out
}

// allSpecs enumerates every experiment in the repository.
func allSpecs() []Spec {
	specs := []Spec{
		table1Spec(),
		theorem41Spec(),
	}
	specs = append(specs, motivationSpecs()...)
	specs = append(specs, staticSpecs()...)
	specs = append(specs, schedulerSpecs()...)
	specs = append(specs, fctSpecs()...)
	specs = append(specs, fattreeSpecs()...)
	specs = append(specs, extensionSpecs()...)
	specs = append(specs, scenarioSpecs()...)
	specs = append(specs, calibrateSpecs()...)
	return specs
}
