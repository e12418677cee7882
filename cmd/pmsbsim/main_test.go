package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"pmsb/internal/experiment"
	"pmsb/internal/obs"
)

func capture(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var buf bytes.Buffer
	err := run(args, &buf)
	return buf.String(), err
}

func TestRunList(t *testing.T) {
	out, err := capture(t, "-list")
	if err != nil {
		t.Fatalf("-list: %v", err)
	}
	for _, want := range []string{"fig1", "fig27", "table1", "fct-dwrr", "incast"} {
		if !strings.Contains(out, want) {
			t.Fatalf("-list output missing %q", want)
		}
	}
}

func TestRunSingleExperiment(t *testing.T) {
	out, err := capture(t, "-experiment", "table1", "-quick")
	if err != nil {
		t.Fatalf("-experiment table1: %v", err)
	}
	if !strings.Contains(out, "pmsb(e)") || !strings.Contains(out, "wall time") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}

func TestRunJSONFormat(t *testing.T) {
	out, err := capture(t, "-experiment", "table1", "-quick", "-format", "json")
	if err != nil {
		t.Fatalf("json: %v", err)
	}
	var res struct {
		ID   string     `json:"id"`
		Rows [][]string `json:"rows"`
	}
	if err := json.Unmarshal([]byte(out), &res); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	if res.ID != "table1" || len(res.Rows) != 4 {
		t.Fatalf("JSON content wrong: %+v", res)
	}
}

func TestRunBadFormat(t *testing.T) {
	if _, err := capture(t, "-experiment", "table1", "-format", "xml"); err == nil {
		t.Fatal("bad format must error")
	}
}

func TestRunOutFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.tsv")
	if _, err := capture(t, "-experiment", "table1", "-quick", "-out", path); err != nil {
		t.Fatalf("-out: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read output: %v", err)
	}
	if !strings.Contains(string(data), "table1") {
		t.Fatal("output file missing experiment data")
	}
}

func TestRunOutFileBadPath(t *testing.T) {
	if _, err := capture(t, "-experiment", "table1", "-out", "/nonexistent/dir/x.tsv"); err == nil {
		t.Fatal("unwritable -out must error")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := capture(t, "-experiment", "nope"); err == nil {
		t.Fatal("unknown experiment must error")
	}
}

func TestRunNoArgs(t *testing.T) {
	if _, err := capture(t); err == nil {
		t.Fatal("missing mode must error")
	}
}

func TestRunBadFlag(t *testing.T) {
	if _, err := capture(t, "-bogus"); err == nil {
		t.Fatal("bad flag must error")
	}
}

func TestRunWithSeries(t *testing.T) {
	out, err := capture(t, "-experiment", "fig5", "-quick", "-series")
	if err != nil {
		t.Fatalf("-series: %v", err)
	}
	if !strings.Contains(out, "## series") {
		t.Fatal("series output missing")
	}
}

func TestRunWithoutSeriesOmitsThem(t *testing.T) {
	out, err := capture(t, "-experiment", "fig5", "-quick")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "## series") {
		t.Fatal("series must be omitted by default")
	}
}

func TestRunMultipleExperiments(t *testing.T) {
	out, err := capture(t, "-experiment", "table1, fig5", "-quick")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "# table1:") || !strings.Contains(out, "# fig5:") {
		t.Fatalf("multi-experiment output incomplete:\n%s", out)
	}
}

// -h is a request for the usage text, not a misuse: run must report
// success so shells see exit status 0.
func TestRunHelpSucceeds(t *testing.T) {
	if _, err := capture(t, "-h"); err != nil {
		t.Fatalf("-h returned error: %v", err)
	}
	if _, err := capture(t, "-help"); err != nil {
		t.Fatalf("-help returned error: %v", err)
	}
}

// More than one experiment in JSON mode must produce a single parseable
// document (an array), not concatenated bare objects.
func TestRunJSONArrayForMultipleExperiments(t *testing.T) {
	out, err := capture(t, "-experiment", "table1,fig5", "-quick", "-format", "json")
	if err != nil {
		t.Fatalf("json multi: %v", err)
	}
	var results []struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal([]byte(out), &results); err != nil {
		t.Fatalf("multi-experiment JSON is not one array: %v\n%s", err, out)
	}
	if len(results) != 2 || results[0].ID != "table1" || results[1].ID != "fig5" {
		t.Fatalf("array content wrong: %+v", results)
	}
}

func TestRunSummaryBlock(t *testing.T) {
	out, err := capture(t, "-experiment", "table1", "-quick")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "# summary:") {
		t.Fatalf("default TSV output missing '# summary' block:\n%s", out)
	}

	out, err = capture(t, "-experiment", "table1", "-quick", "-summary=false")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "# summary:") {
		t.Fatalf("-summary=false must suppress the manifest:\n%s", out)
	}
}

// -shards and -repeats are checked against what each experiment
// declares before anything is built: a lone experiment that cannot
// apply one is refused with no table printed; in a list the ones that
// will run without it are named on stderr, in one line, before the run.
func TestOptionReachRefusedBeforeRun(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-experiment", "fig8", "-quick", "-shards", "2"}, "-shards 2: fig8 does not shard"},
		{[]string{"-experiment", "fct-dwrr", "-quick", "-shards", "2"}, "-shards 2: fct-dwrr does not shard"},
		{[]string{"-experiment", "table1", "-shards", "4"}, "-shards 4: table1 does not shard"},
		{[]string{"-experiment", "fig5", "-quick", "-repeats", "3"}, "-repeats 3: fig5 is not randomized"},
	} {
		var stderr string
		var out string
		var err error
		stderr = captureStderr(t, func() { out, err = capture(t, tc.args...) })
		if err == nil || err.Error() != tc.want {
			t.Errorf("%v: err = %v, want %q", tc.args, err, tc.want)
		}
		if out != "" || stderr != "" {
			t.Errorf("%v: a refused run printed %q (stderr %q)", tc.args, out, stderr)
		}
	}

	var out string
	var err error
	stderr := captureStderr(t, func() {
		out, err = capture(t, "-experiment", "fig5,fattree-incast,table1", "-quick", "-shards", "2", "-repeats", "2")
	})
	if err != nil {
		t.Fatal(err)
	}
	want := "pmsbsim: -shards 2 will not apply to fig5, table1\n" +
		"pmsbsim: -repeats 2 will not apply to fig5, fattree-incast, table1\n"
	if stderr != want {
		t.Errorf("stderr:\n%swant:\n%s", stderr, want)
	}
	if !strings.Contains(out, "# fattree-incast\t") || !strings.Contains(out, "\tpacket\t2\n") {
		t.Errorf("fattree-incast's manifest row does not show 2 shards:\n%s", out)
	}
}

// TestJobsDeterminism is the parallel-runner smoke: the output payload
// must be byte-identical no matter how many workers simulate. The
// sample spans the static dumbbell (table1, fig5), the queue-buildup
// ablation (ablation-average), incast and the weighted scheduler
// figure, so scheduler, marker and transport paths all execute under
// both job counts. -summary=false removes the only intentionally
// nondeterministic bytes (wall times).
func TestJobsDeterminism(t *testing.T) {
	args := []string{
		"-experiment", "table1,fig5,fig4,incast,ablation-average",
		"-quick", "-summary=false",
	}
	serial, err := capture(t, append(args, "-jobs", "1")...)
	if err != nil {
		t.Fatalf("-jobs 1: %v", err)
	}
	parallel, err := capture(t, append(args, "-jobs", "8")...)
	if err != nil {
		t.Fatalf("-jobs 8: %v", err)
	}
	if serial != parallel {
		t.Fatalf("-jobs 8 output differs from -jobs 1:\n--- jobs=1 ---\n%s\n--- jobs=8 ---\n%s", serial, parallel)
	}
	if !strings.Contains(serial, "# table1:") || !strings.Contains(serial, "# ablation-average:") {
		t.Fatalf("determinism sample incomplete:\n%s", serial)
	}
}

// The coordinator has one window protocol, so -par is not a flag:
// every spelling of it, the retired protocol names included, is a
// usage error.
func TestParBadValue(t *testing.T) {
	for _, par := range []string{"channel", "global", "channel-steal"} {
		_, err := capture(t, "-experiment", "fattree", "-quick", "-shards", "2", "-par", par)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -par") {
			t.Fatalf("-par %s: err = %v, want a usage error", par, err)
		}
	}
}

// TestTraceExport drives the observability path end to end: a traced
// fig8 run must produce a parseable event trace covering the
// bottleneck port.
func TestTraceExport(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "fig8.bin")
	if _, err := capture(t, "-experiment", "fig8", "-quick", "-tracefile", trace); err != nil {
		t.Fatalf("traced run: %v", err)
	}

	kinds := traceKinds(t, trace)
	for _, k := range []obs.Kind{obs.KindEnqueue, obs.KindDequeue, obs.KindMark, obs.KindFlowStart} {
		if kinds[k] == 0 {
			t.Errorf("trace has no %v events", k)
		}
	}
	// fig8 runs PMSB on a two-queue port: the selective-blindness filter
	// must fire (queue 1's single flow stays under its share).
	if kinds[obs.KindBlind] == 0 {
		t.Error("trace has no blind events (PMSB filter never engaged)")
	}
	if kinds[obs.KindFlowStart] != 5 {
		t.Errorf("trace has %d flow starts, want fig8's 5", kinds[obs.KindFlowStart])
	}
}

// traceKinds tallies the events of the trace files by kind, requiring
// every file to parse and hold events.
func traceKinds(t *testing.T, paths ...string) map[obs.Kind]int {
	t.Helper()
	st := obs.NewStreamStats(obs.StreamOptions{Counts: true})
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			t.Fatalf("open trace: %v", err)
		}
		before := st.Events
		err = st.Reduce(f)
		f.Close()
		if err != nil {
			t.Fatalf("parse trace %s: %v", path, err)
		}
		if st.Events == before {
			t.Fatalf("trace %s is empty", path)
		}
	}
	return st.Kinds
}

// TestTraceRestrictions: tracing an unsynchronized bus must refuse
// multi-experiment and multi-repeat invocations.
func TestTraceRestrictions(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "t.bin")
	if _, err := capture(t, "-experiment", "table1,fig5", "-quick", "-tracefile", trace); err == nil {
		t.Error("tracing two experiments must fail")
	}
	if _, err := capture(t, "-experiment", "fig16", "-quick", "-repeats", "3", "-tracefile", trace); err == nil ||
		!strings.Contains(err.Error(), "-repeats 1") {
		t.Errorf("tracing with -repeats > 1 must fail, got %v", err)
	}
	// The encoding is no longer a choice, and the per-queue tallies come
	// from the trace (pmsbstat): each retired flag is a usage error, not
	// a silently ignored option.
	for _, retired := range [][]string{{"-traceformat", "bin"}, {"-metrics", trace + ".metrics"}} {
		if _, err := capture(t, append([]string{"-experiment", "fig8", "-quick", "-tracefile", trace}, retired...)...); err == nil ||
			!strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("retired %s flag: err = %v, want a usage error", retired[0], err)
		}
	}
}

// TestTraceBinaryExport: -tracefile writes the binary format whatever
// the file is called (there is no extension rule), and it parses back.
func TestTraceBinaryExport(t *testing.T) {
	for _, name := range []string{"fig8.bin", "fig8.jsonl", "fig8"} {
		trace := filepath.Join(t.TempDir(), name)
		if _, err := capture(t, "-experiment", "fig8", "-quick", "-tracefile", trace); err != nil {
			t.Fatalf("%s: traced run: %v", name, err)
		}
		raw, err := os.ReadFile(trace)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(raw, []byte("PMSBTRC1")) {
			t.Fatalf("%s does not start with the binary magic: %q", name, raw[:8])
		}
		events, err := obs.ReadBinary(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: parse trace: %v", name, err)
		}
		if len(events) == 0 {
			t.Fatalf("%s: trace is empty", name)
		}
	}
}

// TestTraceSpillLossless: pmsbsim's trace, spilled to its file each
// time the ring fills, is byte-identical to the same run captured whole
// in a ring that never fills.
func TestTraceSpillLossless(t *testing.T) {
	spilled := filepath.Join(t.TempDir(), "fig5.bin")
	if _, err := capture(t, "-experiment", "fig5", "-quick", "-tracefile", spilled); err != nil {
		t.Fatalf("traced run: %v", err)
	}
	spec, err := experiment.Lookup("fig5")
	if err != nil {
		t.Fatal(err)
	}
	bus := obs.NewTraceBus(1 << 16)
	if _, _, err := experiment.RunMany([]experiment.Spec{spec}, experiment.Options{Quick: true, Seed: 1, Obs: []*obs.Bus{bus}}, 1); err != nil {
		t.Fatal(err)
	}
	if bus.Ring().Dropped() != 0 {
		t.Fatal("the reference ring wrapped; grow it")
	}
	if bus.Ring().Total() <= traceRing {
		t.Fatalf("fig5 emits %d events: the pmsbsim ring (%d) never spilled", bus.Ring().Total(), traceRing)
	}
	var whole bytes.Buffer
	if err := bus.Ring().WriteBinary(&whole); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(spilled)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, whole.Bytes()) {
		t.Fatalf("spilled trace (%d bytes) differs from the unspilled one (%d bytes)", len(got), whole.Len())
	}
}

// TestTraceShardedExport: -shards 2 writes one spill file per shard;
// both parse, and together they hold switch and flow events.
func TestTraceShardedExport(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "ft.bin")
	if _, err := capture(t, "-experiment", "fattree-incast", "-quick",
		"-shards", "2", "-tracefile", trace); err != nil {
		t.Fatalf("sharded traced run: %v", err)
	}
	kinds := traceKinds(t, obs.ShardTracePath(trace, 0), obs.ShardTracePath(trace, 1))
	for _, k := range []obs.Kind{obs.KindEnqueue, obs.KindDequeue, obs.KindFlowStart, obs.KindFlowFinish} {
		if kinds[k] == 0 {
			t.Errorf("sharded trace has no %v events", k)
		}
	}
}

// A k=8 fat-tree partitions into at most its 8 pods, so -shards 16
// traces into eight spill files, all holding events: no file for a
// shard the run never had.
func TestTraceShardFilesMatchWidth(t *testing.T) {
	dir := t.TempDir()
	if _, err := capture(t, "-experiment", "fattree", "-quick",
		"-shards", "16", "-tracefile", filepath.Join(dir, "ft.bin")); err != nil {
		t.Fatalf("sharded traced run: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
		if info, err := e.Info(); err != nil || info.Size() <= 8 {
			t.Errorf("%s holds no events (%v)", e.Name(), err)
		}
	}
	var want []string
	for i := 0; i < 8; i++ {
		want = append(want, filepath.Base(obs.ShardTracePath(filepath.Join(dir, "ft.bin"), i)))
	}
	if !slices.Equal(names, want) {
		t.Errorf("trace files %v, want %v", names, want)
	}
}
