package experiment

import (
	"bytes"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"

	"pmsb/internal/obs"
	"pmsb/internal/pkt"
)

var quick = Options{Quick: true, Seed: 1}

func mustRun(t *testing.T, id string) *Result {
	t.Helper()
	spec, err := Lookup(id)
	if err != nil {
		t.Fatalf("Lookup(%q): %v", id, err)
	}
	res, err := spec.Run(quick)
	if err != nil {
		t.Fatalf("run %s: %v", id, err)
	}
	if res.ID != id {
		t.Fatalf("result ID = %q, want %q", res.ID, id)
	}
	if len(res.Headers) == 0 || len(res.Rows) == 0 {
		t.Fatalf("%s produced an empty table", id)
	}
	for i, row := range res.Rows {
		if len(row) != len(res.Headers) {
			t.Fatalf("%s row %d has %d cells for %d headers", id, i, len(row), len(res.Headers))
		}
	}
	return res
}

// cell fetches the value at (row matcher, column name).
func cell(t *testing.T, res *Result, match func(row []string) bool, column string) string {
	t.Helper()
	col := -1
	for i, h := range res.Headers {
		if h == column {
			col = i
		}
	}
	if col < 0 {
		t.Fatalf("%s: no column %q in %v", res.ID, column, res.Headers)
	}
	for _, row := range res.Rows {
		if match(row) {
			return row[col]
		}
	}
	t.Fatalf("%s: no matching row", res.ID)
	return ""
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table1", "theorem41", "fct-dwrr", "fct-wfq",
		"pool", "ablation-portk", "ablation-filter", "incast",
		"ablation-rttthresh", "fct-weighted",
		"analysis-validation", "ablation-average", "pfc",
		"ablation-markpoint", "fattree", "fattree-incast", "fattree32",
		"scenario-incast", "scenario-permutation", "scenario-fattree",
		"calibrate", "flow-scale", "fig8-wrr",
	}
	for i := 1; i <= 27; i++ {
		want = append(want, "fig"+itoa(i))
	}
	reg := make(map[string]bool)
	for _, s := range List() {
		reg[s.ID] = true
		if s.Title == "" || s.Run == nil {
			t.Fatalf("spec %s incomplete", s.ID)
		}
	}
	for _, id := range want {
		if !reg[id] {
			t.Fatalf("experiment %q missing from registry", id)
		}
	}
	if len(reg) != len(want) {
		t.Fatalf("registry has %d specs, want %d", len(reg), len(want))
	}
	if _, err := Lookup("nope"); err == nil {
		t.Fatal("Lookup of unknown ID should error")
	}
}

func TestResultTSV(t *testing.T) {
	res := &Result{ID: "x", Title: "t", Headers: []string{"a", "b"}}
	res.AddRow("1", "2")
	res.AddNote("note %d", 7)
	res.within("share", "0.50", "%.2f", 0.5, 0.47, 0.53)
	res.below("peak", "~20% below", 90, 60)
	tsv := res.TSV()
	for _, want := range []string{"# x: t", "a\tb", "1\t2", "# note 7",
		"# holds: share: measured 0.50, want [0.47, 0.53] (paper: 0.50)\n",
		"# FAILS: peak: measured -50.0% below, want > 0% below (paper: ~20% below)\n"} {
		if !strings.Contains(tsv, want) {
			t.Fatalf("TSV missing %q:\n%s", want, tsv)
		}
	}
}

// claimVerdicts pins how many verdicts each experiment states at quick
// seed 1. An experiment it does not list states none, which
// checkGolden holds the rest of the registry to.
var claimVerdicts = map[string]int{
	"table1": 4, "theorem41": 2,
	"fig1": 1, "fig2": 2, "fig3": 1, "fig4": 1, "fig6": 1, "fig7": 1,
	"fig8": 2, "fig8-wrr": 2, "fig9": 4, "fig10": 2, "fig11": 3, "fig12": 3,
	"fig13": 3, "fig14": 3, "fig15": 2,
	// An FCT sweep's figures carry its verdicts.
	"fct-dwrr": 4, "fig16": 4, "fig17": 4, "fig18": 4, "fig19": 4, "fig20": 4, "fig21": 4,
	"fct-wfq": 3, "fig22": 3, "fig23": 3, "fig24": 3, "fig25": 3, "fig26": 3, "fig27": 3,
	"pool": 3, "ablation-portk": 2, "ablation-filter": 4, "ablation-rttthresh": 3,
	"analysis-validation": 6, "ablation-average": 1, "incast": 2, "pfc": 2, "fct-weighted": 1,
}

// TestPaperClaims runs every experiment that states a paper claim at
// quick seed 1: each must state its pinned number of verdicts, and every
// verdict must hold. The randomized FCT sweeps are skipped in -short
// mode.
func TestPaperClaims(t *testing.T) {
	for _, spec := range List() {
		want, ok := claimVerdicts[spec.ID]
		if !ok {
			continue
		}
		t.Run(spec.ID, func(t *testing.T) {
			if testing.Short() && spec.Randomized {
				t.Skip("large-scale FCT sweep skipped in -short mode")
			}
			res := mustRun(t, spec.ID)
			if len(res.Verdicts) != want {
				t.Errorf("%d verdicts, pinned %d", len(res.Verdicts), want)
			}
			for _, v := range res.Verdicts {
				if !v.Holds {
					t.Error(v)
				}
			}
		})
	}
}

func TestFig5TCNPeakStaysHigh(t *testing.T) {
	fig4 := mustRun(t, "fig4")
	fig5 := mustRun(t, "fig5")
	deq := atof(cell(t, fig4, func(r []string) bool { return r[0] == "dctcp-dequeue" }, "peak_pkts"))
	tcn := atof(cell(t, fig5, func(r []string) bool { return r[0] == "tcn" }, "peak_pkts"))
	if tcn <= deq {
		t.Fatalf("TCN peak (%v) should not beat DCTCP dequeue marking (%v): no early notification", tcn, deq)
	}
}

func TestFCTWFQExcludesMQECN(t *testing.T) {
	if testing.Short() {
		t.Skip("large-scale FCT sweep skipped in -short mode")
	}
	res := mustRun(t, "fct-wfq")
	for _, row := range res.Rows {
		if row[0] == "mq-ecn" {
			t.Fatal("MQ-ECN must be excluded under WFQ (round-based only)")
		}
	}
	found := false
	for _, n := range res.Notes {
		if strings.Contains(n, "mq-ecn excluded") {
			found = true
		}
	}
	if !found {
		t.Fatal("exclusion note missing")
	}
}

// A traced pfc run records the PFC controller and the DCQCN senders,
// not only the ports: one pfc_pause event per pause the table counts,
// and flow-start and rate events from the senders.
func TestPFCTraceRecordsPausesAndRates(t *testing.T) {
	var file bytes.Buffer
	bus := obs.NewTraceBus(1 << 12)
	spill := obs.NewSpillWriter(&file, obs.FormatBinary)
	bus.Ring().SetSpill(spill)
	opt := quick
	opt.Obs = []*obs.Bus{bus}
	spec, err := Lookup("pfc")
	if err != nil {
		t.Fatal(err)
	}
	res, err := spec.Run(opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := bus.Ring().FlushSpill(); err != nil {
		t.Fatal(err)
	}
	if err := spill.Close(); err != nil {
		t.Fatal(err)
	}
	pauses := 0
	for _, scheme := range []string{"pfc-only", "pfc+dcqcn(ecn)"} {
		pauses += int(atof(cell(t, res, func(r []string) bool { return r[0] == scheme }, "pauses")))
	}

	var tracedPauses int
	starts, rates := map[pkt.FlowID]int{}, map[pkt.FlowID]int{}
	err = obs.MergeTraces([]io.Reader{&file}, 0, math.MaxInt64, func(ev *obs.Event) error {
		switch ev.Kind {
		case obs.KindPFCPause:
			tracedPauses++
		case obs.KindFlowStart:
			starts[ev.Flow]++
		case obs.KindRate:
			rates[ev.Flow]++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if pauses == 0 || tracedPauses != pauses {
		t.Fatalf("trace holds %d pfc_pause events, table counts %d pauses", tracedPauses, pauses)
	}
	// Both schemes start the four hot senders (flows 1-4) and the
	// victim (flow 100); under DCQCN every hot sender is cut by CNPs.
	for _, f := range []pkt.FlowID{1, 2, 3, 4, 100} {
		if starts[f] != 2 {
			t.Errorf("flow %d: %d flow_start events, want one per scheme", f, starts[f])
		}
	}
	for _, f := range []pkt.FlowID{1, 2, 3, 4} {
		if rates[f] == 0 {
			t.Errorf("hot flow %d: no rate events", f)
		}
	}
}

func atof(s string) float64 {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0
	}
	return v
}
