package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"text/tabwriter"
)

// A report is one complete set of measurements with the provenance that
// makes it comparable: `benchmark run` writes one, `benchmark compare`
// judges two.

// provenance is where and from what a report was measured.
type provenance struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GitSHA     string `json:"git_sha"`
}

// comparable reports whether two reports were measured on like
// machines; the git SHA is what is being compared, so it may differ.
func (p provenance) comparable(q provenance) bool {
	return p.NProc == q.NProc && p.GOMAXPROCS == q.GOMAXPROCS &&
		p.GoVersion == q.GoVersion && p.CPUModel == q.CPUModel
}

func readProvenance() provenance {
	p := provenance{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		CPUModel: "unknown", GitSHA: "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				p.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	// Outside a git checkout (the driver's copy is one) the SHA stays
	// unknown; that is recorded, not an error.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		p.GitSHA = strings.TrimSpace(string(out))
	}
	return p
}

// report is the file `benchmark run` writes.
type report struct {
	Provenance provenance `json:"provenance"`
	Seed       int64      `json:"seed"`
	Seconds    float64    `json:"seconds"`
	// Plain holds each workload's end-to-end measurement, Traced its
	// per-layer one (empty without -trace).
	Plain  map[string]*measurement `json:"plain"`
	Traced map[string]*measurement `json:"traced,omitempty"`
}

// runMain measures every workload (or one) and writes a report.
func runMain(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	out := fs.String("out", "", "report file to write (required)")
	seed := fs.Int64("seed", 1, "workload seed (7 is the held-out seed)")
	only := fs.String("workload", "", "measure only this workload")
	trace := fs.Bool("trace", false, "also make the traced, per-layer measurement")
	seconds := fs.Float64("seconds", runSeconds, "how long each measurement runs")
	outDir := fs.String("dir", defaultOutDir, "directory for spans and scratch files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("run: -out FILE is required")
	}
	rep := &report{
		Provenance: readProvenance(), Seed: *seed, Seconds: *seconds,
		Plain: map[string]*measurement{}, Traced: map[string]*measurement{},
	}
	failed := 0
	for _, w := range workloadSpecs {
		if *only != "" && w.Name != *only {
			continue
		}
		for _, traced := range []bool{false, true} {
			if traced && !*trace {
				continue
			}
			m, err := measure(ctx, measureConfig{
				Workload: w.Name, Seed: *seed, Seconds: *seconds, Trace: traced, Scale: 1, OutDir: *outDir,
			}, spawnRep)
			if err != nil {
				return err
			}
			printMeasurement(m)
			failed += m.Failed
			if traced {
				rep.Traced[w.Name] = m
			} else {
				rep.Plain[w.Name] = m
			}
		}
	}
	if len(rep.Plain) == 0 {
		return fmt.Errorf("run: unknown workload %q", *only)
	}
	doc, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return fmt.Errorf("run: encode report: %w", err)
	}
	if err := os.WriteFile(*out, append(doc, '\n'), 0o644); err != nil {
		return fmt.Errorf("run: %w", err)
	}
	if failed > 0 {
		return fmt.Errorf("run: %d failed operations (report written to %s)", failed, *out)
	}
	return nil
}

func readReport(path string) (*report, error) {
	doc, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(doc, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// spread is the interquartile range of v as a share of its median,
// with the quartiles of Python's statistics.quantiles(v, n=4): the
// measure the acceptance rule is written in. Fewer than two samples
// have no spread.
func spread(v []float64) float64 {
	n := len(v)
	med := median(v)
	if n < 2 || med == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	quantile := func(k int) float64 { // exclusive method, k of 4
		pos := float64(k*(n+1)) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return math.Abs(quantile(3)-quantile(1)) / math.Abs(med)
}

// compareMain prints one row per (workload, end-to-end metric) of two
// reports and exits non-zero on a regression or a changed exact value.
func compareMain(args []string) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	force := fs.Bool("force", false, "compare even if the reports' machines differ")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("compare: want two report files, base then candidate")
	}
	a, err := readReport(fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := readReport(fs.Arg(1))
	if err != nil {
		return err
	}
	problems := compareReports(os.Stdout, a, b, *force)
	if problems > 0 {
		return fmt.Errorf("compare: %d problems", problems)
	}
	return nil
}

// compareReports writes the comparison of base a and candidate b to w
// and returns the number of regressions, changed exact values, failed
// operations and refusals.
func compareReports(w *os.File, a, b *report, force bool) int {
	fmt.Fprintf(w, "base      %s  seed %d  %s\ncandidate %s  seed %d  %s\n",
		a.Provenance.GitSHA, a.Seed, a.Provenance.CPUModel, b.Provenance.GitSHA, b.Seed, b.Provenance.CPUModel)
	if !a.Provenance.comparable(b.Provenance) {
		fmt.Fprintf(w, "provenance differs: base %+v, candidate %+v\n", a.Provenance, b.Provenance)
		if !force {
			fmt.Fprintln(w, "refusing to compare host-time metrics across machines (use -force)")
			return 1
		}
	}
	problems := 0
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase\tcandidate\tratio (base)\tbound\tverdict")
	for _, ws := range workloadSpecs {
		ma, mb := a.Plain[ws.Name], b.Plain[ws.Name]
		if ma == nil || mb == nil {
			continue
		}
		for _, spec := range endToEnd {
			va, vb := ma.Metrics[spec.Name], mb.Metrics[spec.Name]
			verdict := verdictFor(spec, va, vb, a.Seed == b.Seed)
			if verdict == "REGRESSED" || verdict == "CHANGED" {
				problems++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.3fx (%.6g %s)\t%.0f%%\t%s\n",
				ws.Name, spec.Name, va.Value, vb.Value, ratio(vb.Value, va.Value), va.Value, spec.Unit, spec.Bound*100, verdict)
		}
		verdict := "unchanged"
		if ma.Digest != mb.Digest {
			verdict = "CHANGED"
			if a.Seed == b.Seed {
				problems++
			}
		}
		fmt.Fprintf(tw, "%s\tsim_digest\t%s\t%s\t\t\t%s\n", ws.Name, ma.Digest, mb.Digest, verdict)
		for _, m := range []*measurement{ma, mb} {
			if m.Failed > 0 {
				problems++
				fmt.Fprintf(tw, "%s\t%d of %d operations FAILED\t\t\t\t\t\n", ws.Name, m.Failed, m.Attempted)
			}
		}
	}
	tw.Flush()

	// Per-layer counts marked exact must be equal at the same seed: they
	// are the claims a change may rest on without timing anything.
	if a.Seed == b.Seed {
		for _, ws := range workloadSpecs {
			ta, tb := a.Traced[ws.Name], b.Traced[ws.Name]
			if ta == nil || tb == nil {
				continue
			}
			for _, spec := range perLayer {
				if va, vb := ta.Metrics[spec.Name].Value, tb.Metrics[spec.Name].Value; spec.Exact && va != vb {
					problems++
					fmt.Fprintf(w, "%s: exact metric %s CHANGED: %.6g -> %.6g %s\n", ws.Name, spec.Name, va, vb, spec.Unit)
				}
			}
		}
	}
	return problems
}

// simulated reports whether a metric is virtual time of the modelled
// network, which repeats exactly at a fixed seed.
func simulated(spec metricSpec) bool { return strings.HasSuffix(spec.Unit, "_sim") }

// verdictFor judges one metric of candidate b against base a.
func verdictFor(spec metricSpec, a, b metricValue, sameSeed bool) string {
	if simulated(spec) && sameSeed {
		if a.Value == b.Value {
			return "identical"
		}
		return "CHANGED"
	}
	if a.Value == 0 {
		return "no base"
	}
	worse := (b.Value - a.Value) / a.Value // share of the base by which b is worse
	if spec.Better == "higher" {
		worse = -worse
	}
	// Where either value's own uncertainty is wider than the bound, a
	// difference inside it says nothing. A value is the median of reps
	// that each drew fresh inputs, so its uncertainty is the reps' spread
	// over the root of their number.
	uncertainty := func(v metricValue) float64 {
		if len(v.Samples) == 0 {
			return 0
		}
		return spread(v.Samples) / math.Sqrt(float64(len(v.Samples)))
	}
	noisy := math.Max(uncertainty(a), uncertainty(b)) > spec.Bound
	switch {
	case worse > spec.Bound && noisy:
		return "unresolved (worse, spread > bound)"
	case worse > spec.Bound:
		return "REGRESSED"
	case noisy:
		return "unresolved (spread > bound)"
	case worse < -spec.Bound:
		return "improved"
	}
	return "unchanged"
}
