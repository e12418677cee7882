package experiment

import (
	"bytes"
	"io"
	"math"
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
	tsv := res.TSV()
	for _, want := range []string{"# x: t", "a\tb", "1\t2", "# note 7"} {
		if !strings.Contains(tsv, want) {
			t.Fatalf("TSV missing %q:\n%s", want, tsv)
		}
	}
}

func TestTable1Matrix(t *testing.T) {
	res := mustRun(t, "table1")
	get := func(scheme, col string) string {
		return cell(t, res, func(r []string) bool { return r[0] == scheme }, col)
	}
	if get("mq-ecn", "generic_scheduler") != "no" {
		t.Fatal("MQ-ECN must not support generic schedulers")
	}
	if get("tcn", "generic_scheduler") != "yes" || get("tcn", "early_notification") != "no" {
		t.Fatal("TCN: generic yes, early notification no")
	}
	if get("pmsb", "generic_scheduler") != "yes" || get("pmsb", "early_notification") != "yes" {
		t.Fatal("PMSB must support generic schedulers and early notification")
	}
	if get("pmsb", "no_switch_modification") != "no" || get("pmsb(e)", "no_switch_modification") != "yes" {
		t.Fatal("only PMSB(e) avoids switch modification")
	}
}

func TestFig1RTTGrowsWithQueues(t *testing.T) {
	res := mustRun(t, "fig1")
	one := atof(cell(t, res, func(r []string) bool { return r[0] == "1" }, "avg_rtt_us"))
	eight := atof(cell(t, res, func(r []string) bool { return r[0] == "8" }, "avg_rtt_us"))
	if eight < 2*one {
		t.Fatalf("avg RTT with 8 queues (%v us) should far exceed 1 queue (%v us)", eight, one)
	}
}

func TestFig2FractionalThresholdLosesThroughput(t *testing.T) {
	res := mustRun(t, "fig2")
	k2 := atof(cell(t, res, func(r []string) bool { return r[0] == "2" }, "throughput_gbps"))
	k16 := atof(cell(t, res, func(r []string) bool { return r[0] == "16" }, "throughput_gbps"))
	if k16 < 9 {
		t.Fatalf("standard threshold throughput = %v Gbps, want ~10", k16)
	}
	if k2 >= k16 {
		t.Fatalf("fractional threshold (%v) should lose throughput vs standard (%v)", k2, k16)
	}
}

func TestFig3PerPortViolatesFairness(t *testing.T) {
	res := mustRun(t, "fig3")
	q1 := atof(cell(t, res, func(r []string) bool { return r[0] == "1" }, "throughput_gbps"))
	q2 := atof(cell(t, res, func(r []string) bool { return r[0] == "2" }, "throughput_gbps"))
	share := q1 / (q1 + q2)
	if share > 0.42 {
		t.Fatalf("per-port marking should squeeze queue 1 well below 0.5 share, got %.3f", share)
	}
}

func TestFig6LargeThresholdRestoresFairness(t *testing.T) {
	res := mustRun(t, "fig6")
	q1 := atof(cell(t, res, func(r []string) bool { return r[0] == "1" }, "throughput_gbps"))
	q2 := atof(cell(t, res, func(r []string) bool { return r[0] == "2" }, "throughput_gbps"))
	share := q1 / (q1 + q2)
	if share < 0.40 || share > 0.60 {
		t.Fatalf("65-packet threshold should restore ~fair sharing, got share %.3f", share)
	}
}

func TestFig4DequeueMarkingCutsPeak(t *testing.T) {
	res := mustRun(t, "fig4")
	enq := atof(cell(t, res, func(r []string) bool { return r[0] == "dctcp-enqueue" }, "peak_pkts"))
	deq := atof(cell(t, res, func(r []string) bool { return r[0] == "dctcp-dequeue" }, "peak_pkts"))
	if deq >= enq {
		t.Fatalf("dequeue peak (%v) should be below enqueue peak (%v)", deq, enq)
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

func TestFig8PMSBPreservesFairness(t *testing.T) {
	res := mustRun(t, "fig8")
	q1 := atof(cell(t, res, func(r []string) bool { return r[0] == "1" }, "throughput_gbps"))
	q2 := atof(cell(t, res, func(r []string) bool { return r[0] == "2" }, "throughput_gbps"))
	share := q1 / (q1 + q2)
	if share < 0.42 || share > 0.58 {
		t.Fatalf("PMSB should hold the 0.5 fair share, got %.3f", share)
	}
	if q1+q2 < 9 {
		t.Fatalf("PMSB should keep the link nearly full, got %.2f Gbps", q1+q2)
	}
}

// On WRR too, PMSB holds queue 1's fair share against four queue-2 flows.
func TestFig8WRRPMSBPreservesFairness(t *testing.T) {
	res := mustRun(t, "fig8-wrr")
	q1 := atof(cell(t, res, func(r []string) bool { return r[0] == "1" }, "throughput_gbps"))
	q2 := atof(cell(t, res, func(r []string) bool { return r[0] == "2" }, "throughput_gbps"))
	if share := q1 / (q1 + q2); share < 0.42 || share > 0.58 {
		t.Fatalf("PMSB on WRR should hold the 0.5 fair share, got %.3f", share)
	}
}

func TestFig9PMSBBeatsPerQueueStandard(t *testing.T) {
	res := mustRun(t, "fig9")
	get := func(scheme string) float64 {
		return atof(cell(t, res, func(r []string) bool { return r[0] == scheme }, "avg_rtt_us"))
	}
	if get("pmsb") >= get("per-queue-std") {
		t.Fatalf("PMSB avg RTT (%v us) should be below per-queue standard (%v us)",
			get("pmsb"), get("per-queue-std"))
	}
	if get("pmsb(e)") >= get("per-queue-std") {
		t.Fatal("PMSB(e) avg RTT should be below per-queue standard")
	}
}

func TestFig11PMSBEarlyNotification(t *testing.T) {
	res := mustRun(t, "fig11")
	enq := atof(cell(t, res, func(r []string) bool { return r[0] == "enqueue" }, "peak_pkts"))
	deq := atof(cell(t, res, func(r []string) bool { return r[0] == "dequeue" }, "peak_pkts"))
	if deq >= enq {
		t.Fatalf("PMSB dequeue peak (%v) should be below enqueue peak (%v)", deq, enq)
	}
}

func TestFig13SPWFQFinalPhase(t *testing.T) {
	res := mustRun(t, "fig13")
	q1 := atof(cell(t, res, func(r []string) bool { return r[0] == "3" && r[1] == "1" }, "throughput_gbps"))
	q2 := atof(cell(t, res, func(r []string) bool { return r[0] == "3" && r[1] == "2" }, "throughput_gbps"))
	q3 := atof(cell(t, res, func(r []string) bool { return r[0] == "3" && r[1] == "3" }, "throughput_gbps"))
	if q1 < 4.2 || q1 > 5.5 {
		t.Fatalf("strict queue should hold ~5 Gbps, got %v", q1)
	}
	if q2 < 1.7 || q2 > 3.3 || q3 < 1.7 || q3 > 3.3 {
		t.Fatalf("WFQ queues should split ~2.5/2.5 Gbps, got %v/%v", q2, q3)
	}
}

func TestFig15WFQFinalPhase(t *testing.T) {
	res := mustRun(t, "fig15")
	q1 := atof(cell(t, res, func(r []string) bool { return r[0] == "3" && r[1] == "1" }, "throughput_gbps"))
	q2 := atof(cell(t, res, func(r []string) bool { return r[0] == "3" && r[1] == "2" }, "throughput_gbps"))
	if q1 < 4 || q1 > 6 || q2 < 4 || q2 > 6 {
		t.Fatalf("WFQ should settle at ~5/5 Gbps, got %v/%v", q1, q2)
	}
}

func TestTheorem41Shape(t *testing.T) {
	res := mustRun(t, "theorem41")
	low := atof(cell(t, res, func(r []string) bool { return r[0] == "0.25" }, "utilization"))
	high := atof(cell(t, res, func(r []string) bool { return r[0] == "4.00" }, "utilization"))
	if high < 0.9 {
		t.Fatalf("well above the bound utilization should be ~1, got %v", high)
	}
	if low >= high {
		t.Fatalf("below the bound (%v) should lose throughput vs above it (%v)", low, high)
	}
}

func TestPoolCrossPortInterference(t *testing.T) {
	res := mustRun(t, "pool")
	perPortA := atof(cell(t, res, func(r []string) bool { return r[0] == "per-port" }, "portA_gbps"))
	perPoolA := atof(cell(t, res, func(r []string) bool { return r[0] == "per-pool" }, "portA_gbps"))
	if perPortA < 9 {
		t.Fatalf("per-port marking should leave the un-congested port at ~10G, got %v", perPortA)
	}
	if perPoolA >= perPortA*0.8 {
		t.Fatalf("per-pool marking should throttle port A (%v vs %v): the paper's cross-port claim", perPoolA, perPortA)
	}
	marks := atof(cell(t, res, func(r []string) bool { return r[0] == "per-port" }, "portA_marks"))
	if marks != 0 {
		t.Fatalf("per-port marking must not mark the idle port, got %v marks", marks)
	}
}

func TestAblationPortKTradeoff(t *testing.T) {
	res := mustRun(t, "ablation-portk")
	share8 := atof(cell(t, res, func(r []string) bool { return r[0] == "8" }, "q1_share"))
	share128 := atof(cell(t, res, func(r []string) bool { return r[0] == "128" }, "q1_share"))
	rtt8 := atof(cell(t, res, func(r []string) bool { return r[0] == "8" }, "avg_rtt_us"))
	rtt128 := atof(cell(t, res, func(r []string) bool { return r[0] == "128" }, "avg_rtt_us"))
	if share128 <= share8 {
		t.Fatalf("fairness must improve with threshold: %.3f -> %.3f", share8, share128)
	}
	if rtt128 <= rtt8 {
		t.Fatalf("latency must worsen with threshold: %.1f -> %.1f us", rtt8, rtt128)
	}
}

func TestAblationFilterFairnessHolds(t *testing.T) {
	res := mustRun(t, "ablation-filter")
	for _, scale := range []string{"0.25", "0.50", "1.00"} {
		share := atof(cell(t, res, func(r []string) bool { return r[0] == scale }, "q1_share"))
		if share < 0.42 || share > 0.58 {
			t.Fatalf("scale %s: share %.3f should stay near 0.5 (aggressive filters keep fairness)", scale, share)
		}
	}
}

func TestAblationRTTThreshTradeoff(t *testing.T) {
	res := mustRun(t, "ablation-rttthresh")
	share0 := atof(cell(t, res, func(r []string) bool { return r[0] == "0.0" }, "q1_share"))
	share40 := atof(cell(t, res, func(r []string) bool { return r[0] == "40.0" }, "q1_share"))
	if share0 > 0.42 {
		t.Fatalf("accepting all marks should reproduce per-port unfairness, share = %.3f", share0)
	}
	if share40 < 0.42 || share40 > 0.58 {
		t.Fatalf("a sane RTT threshold should restore fairness, share = %.3f", share40)
	}
	// Accepted-mark fraction must fall monotonically with the threshold.
	prev := 2.0
	for _, row := range res.Rows {
		f := atof(row[3])
		if f > prev+1e-9 {
			t.Fatalf("accepted fraction not monotone: %v", res.Rows)
		}
		prev = f
	}
}

func TestAnalysisValidationQmax(t *testing.T) {
	res := mustRun(t, "analysis-validation")
	for _, row := range res.Rows {
		model := atof(row[1])
		sim := atof(row[2])
		// The model's Q_max should predict the simulated maximum within
		// ~20% (the paper's derivation, Eq. 8).
		if sim < 0.8*model || sim > 1.25*model {
			t.Fatalf("n=%s: sim qmax %v vs model %v — model broken", row[0], sim, model)
		}
		// Desynchronization keeps the measured amplitude at or below
		// the synchronized model's.
		if atof(row[4]) > atof(row[3])*1.2 {
			t.Fatalf("n=%s: sim amplitude exceeds the model's", row[0])
		}
	}
}

func TestAblationAverageDelaysSignal(t *testing.T) {
	res := mustRun(t, "ablation-average")
	instant := atof(cell(t, res, func(r []string) bool { return r[0] == "1" }, "peak_pkts"))
	heavy := atof(cell(t, res, func(r []string) bool { return r[0] == "0.0625" }, "peak_pkts"))
	if heavy <= instant {
		t.Fatalf("averaged marking should inflate the burst peak: %v vs %v", heavy, instant)
	}
}

func TestIncastECNAbsorbsBurst(t *testing.T) {
	res := mustRun(t, "incast")
	get := func(scheme, col string) float64 {
		return atof(cell(t, res, func(r []string) bool { return r[0] == scheme }, col))
	}
	if get("no-ecn", "drops") <= get("pmsb-dequeue", "drops") {
		t.Fatal("drop-tail must drop more than PMSB dequeue marking")
	}
	if get("no-ecn", "query_completion_ms") <= get("pmsb-dequeue", "query_completion_ms") {
		t.Fatal("ECN should complete the incast query faster than drop-tail")
	}
}

// TestFCTDWRRQuick is the headline integration test: PMSB must beat TCN
// on small-flow FCT over DWRR at the quick sweep's load.
func TestFCTDWRRQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("large-scale FCT sweep skipped in -short mode")
	}
	res := mustRun(t, "fct-dwrr")
	get := func(scheme, col string) float64 {
		return atof(cell(t, res, func(r []string) bool { return r[0] == scheme }, col))
	}
	if get("pmsb", "small_avg_ms") >= get("tcn", "small_avg_ms") {
		t.Fatalf("PMSB small-flow avg FCT (%v ms) should beat TCN (%v ms)",
			get("pmsb", "small_avg_ms"), get("tcn", "small_avg_ms"))
	}
	// Overall average FCT should be in the same ballpark across schemes
	// (paper: within a few percent; allow 1.6x for the quick run).
	p, tt := get("pmsb", "overall_avg_ms"), get("tcn", "overall_avg_ms")
	if p > 1.6*tt {
		t.Fatalf("PMSB overall FCT (%v) should stay comparable to TCN (%v)", p, tt)
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

func TestPFCDCQCNRescuesVictim(t *testing.T) {
	res := mustRun(t, "pfc")
	get := func(scheme, col string) float64 {
		return atof(cell(t, res, func(r []string) bool { return r[0] == scheme }, col))
	}
	if get("pfc-only", "fabric_drops") != 0 || get("pfc+dcqcn(ecn)", "fabric_drops") != 0 {
		t.Fatal("PFC fabrics must be lossless")
	}
	if get("pfc+dcqcn(ecn)", "victim_gbps") <= 2*get("pfc-only", "victim_gbps") {
		t.Fatalf("DCQCN should rescue the head-of-line-blocked victim: %.2f vs %.2f Gbps",
			get("pfc+dcqcn(ecn)", "victim_gbps"), get("pfc-only", "victim_gbps"))
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
