package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"pmsb/internal/obs"
	"pmsb/internal/schemes"
)

// tableOf runs a subcommand with -format json and returns its
// metric -> value table.
func tableOf(t *testing.T, args ...string) map[string]string {
	t.Helper()
	out, err := capture(t, append(args, "-format", "json")...)
	if err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	var res struct {
		Rows [][]string `json:"rows"`
	}
	if err := json.Unmarshal([]byte(out), &res); err != nil {
		t.Fatalf("run(%v): invalid JSON: %v\n%s", args, err, out)
	}
	table := make(map[string]string, len(res.Rows))
	for _, row := range res.Rows {
		table[row[0]] = row[1]
	}
	return table
}

func TestParseGroups(t *testing.T) {
	services, err := parseGroups("1x0, 8x1,2x3")
	if err != nil {
		t.Fatal(err)
	}
	if len(services) != 11 || services[0] != 0 || services[1] != 1 || services[8] != 1 || services[9] != 3 {
		t.Fatalf("services = %v", services)
	}
	for _, bad := range []string{"", "x1", "1x", "0x1", "-1x0", "1x-2", "ax b", "999x0", "500x0,499x1", "1x64"} {
		if _, err := parseGroups(bad); err == nil {
			t.Fatalf("parseGroups(%q) should fail", bad)
		}
	}
}

func TestParseWeights(t *testing.T) {
	w, err := parseWeights("", 3)
	if err != nil || len(w) != 3 || w[0] != 1 {
		t.Fatalf("default weights = %v, %v", w, err)
	}
	w, err = parseWeights("1, 2.5 ,4", 3)
	if err != nil || w[1] != 2.5 {
		t.Fatalf("weights = %v, %v", w, err)
	}
	for _, bad := range []string{"1", "1,0", "1,-2", "a,b", "1,inf", "1,nan"} {
		if _, err := parseWeights(bad, 2); err == nil {
			t.Fatalf("parseWeights(%q) should fail", bad)
		}
	}
}

func TestRunScenarios(t *testing.T) {
	// One quick scenario per scheduler and per marker: the subcommand
	// must complete and report a loaded link (drop-tail without ECN
	// loses some of it).
	for _, args := range [][]string{
		{"-groups", "1x0,4x1", "-sched", "wfq", "-marker", "pmsb", "-dur", "20ms"},
		{"-groups", "1x0,4x1", "-sched", "dwrr", "-marker", "mqecn", "-dur", "20ms"},
		{"-groups", "1x0,4x1", "-sched", "wrr", "-marker", "tcn", "-dur", "20ms"},
		{"-groups", "2x0", "-sched", "fifo", "-marker", "perqueue", "-dur", "20ms"},
		{"-groups", "1x0,1x1", "-sched", "sp", "-marker", "fractional", "-dur", "20ms"},
		{"-groups", "1x0,1x1,1x2", "-sched", "spwfq", "-marker", "pmsbe", "-dur", "20ms"},
		{"-groups", "2x0", "-marker", "none", "-buffer", "50", "-dur", "20ms"},
		{"-groups", "2x0", "-marker", "pmsb", "-dequeue", "-dur", "20ms"},
	} {
		table := tableOf(t, append([]string{"flow"}, args...)...)
		total, err := strconv.ParseFloat(table["total-gbps"], 64)
		if err != nil || total < 5 {
			t.Fatalf("flow %v: total-gbps = %q, want a loaded 10G link\n%v", args, table["total-gbps"], table)
		}
		if table["rtt-avg-us"] == "" || table["drops"] == "" {
			t.Fatalf("flow %v: incomplete table %v", args, table)
		}
	}
}

func TestRunRejectsBadInputs(t *testing.T) {
	for _, args := range [][]string{
		{"-groups", "zzz"},
		{"-sched", "nope"},
		{"-marker", "nope"},
		{"-weights", "1", "-groups", "1x0,1x1"},
		{"-portk", "0"},
		{"-dur", "0s"},
		{"-bogus"},
		{"stray"},
	} {
		if _, err := capture(t, append([]string{"flow"}, args...)...); err == nil {
			t.Fatalf("flow %v should fail", args)
		}
	}
	// RED was retired: its name is refused, and the error lists the
	// schemes that remain.
	if _, err := capture(t, "flow", "-marker", "red"); err == nil || !strings.Contains(err.Error(), "pmsbe") {
		t.Fatalf("flow -marker red: err = %v, want an unknown-marker error listing the remaining names", err)
	}
}

func TestPMSBRestoresFairnessEndToEnd(t *testing.T) {
	// The library's headline behaviour through the CLI: per-port
	// marking violates fairness, PMSB restores it.
	jain := func(marker string) float64 {
		table := tableOf(t, "flow", "-groups", "1x0,8x1", "-sched", "wfq", "-marker", marker, "-portk", "16", "-dur", "40ms")
		v, err := strconv.ParseFloat(table["weighted-jain"], 64)
		if err != nil {
			t.Fatalf("weighted-jain = %q: %v", table["weighted-jain"], err)
		}
		return v
	}
	perPort := jain("perport")
	pmsb := jain("pmsb")
	if pmsb <= perPort {
		t.Fatalf("PMSB Jain index (%.3f) must beat per-port (%.3f)", pmsb, perPort)
	}
	if pmsb < 0.98 {
		t.Fatalf("PMSB Jain index = %.3f, want ~1", pmsb)
	}
}

// genTrace writes a generated trace of n flows and returns its path.
func genTrace(t *testing.T, args ...string) string {
	t.Helper()
	out, err := capture(t, append([]string{"replay"}, args...)...)
	if err != nil {
		t.Fatalf("replay %v: %v", args, err)
	}
	path := filepath.Join(t.TempDir(), "trace.csv")
	if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestGenerateAndReplay(t *testing.T) {
	trace := genTrace(t, "-gen", "60", "-seed", "3")
	flows := filepath.Join(t.TempDir(), "flows.csv")

	table := tableOf(t, "replay", "-trace", trace, "-marker", "pmsb", "-flows", flows)
	if table["flows"] != "60" || table["completed"] != "60" {
		t.Fatalf("not all flows completed: %v", table)
	}
	data, err := os.ReadFile(flows)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(string(data), "\n")
	if lines != 61 { // header + 60 flows
		t.Fatalf("flows file has %d lines, want 61", lines)
	}
	if strings.Contains(string(data), ",false") {
		t.Fatal("per-flow output reports incomplete flows")
	}
}

func TestReplayDeterministic(t *testing.T) {
	trace := genTrace(t, "-gen", "40")
	args := []string{"replay", "-trace", trace, "-marker", "tcn", "-series", "-summary=false"}
	a, err := capture(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	b, err := capture(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("replay not deterministic")
	}
	if !strings.Contains(a, "## series fct") {
		t.Fatalf("-series must print the per-flow FCTs:\n%s", a)
	}
}

func TestReplayErrors(t *testing.T) {
	if _, err := capture(t, "replay"); err == nil {
		t.Fatal("missing -trace/-gen must error")
	}
	if _, err := capture(t, "replay", "-trace", "/nonexistent.csv"); err == nil {
		t.Fatal("missing file must error")
	}
	trace := filepath.Join(t.TempDir(), "t.csv")
	for name, body := range map[string]string{
		"out-of-range host": "start_us,src,dst,size_bytes,service\n1.0,0,99,1000,0\n",
		"negative host":     "start_us,src,dst,size_bytes,service\n1.0,-1,2,1000,0\n",
		"empty trace":       "start_us,src,dst,size_bytes,service\n",
	} {
		if err := os.WriteFile(trace, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := capture(t, "replay", "-trace", trace); err == nil {
			t.Fatalf("%s must error", name)
		}
	}
}

// Both subcommands take the scheduler/marker pair through one check, so
// they accept and refuse the same pairs with the same message.
func TestSchedulerMarkerPairs(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "t.csv")
	if err := os.WriteFile(trace, []byte("1.0,0,1,1000,0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, sched := range schemes.SchedulerNames() {
		for _, marker := range schemes.MarkerNames() {
			_, flowErr := capture(t, "flow", "-groups", "1x0,1x1", "-dur", "1ms", "-sched", sched, "-marker", marker)
			_, replayErr := capture(t, "replay", "-trace", trace, "-sched", sched, "-marker", marker)
			wantErr := marker == "mqecn" && sched != "dwrr" && sched != "wrr"
			if (flowErr != nil) != wantErr || (replayErr != nil) != wantErr {
				t.Errorf("%s x %s: flow err = %v, replay err = %v, want error %v", sched, marker, flowErr, replayErr, wantErr)
				continue
			}
			if wantErr && (flowErr.Error() != replayErr.Error() || !strings.Contains(flowErr.Error(), "round-based")) {
				t.Errorf("%s x %s: messages differ or do not name the reason:\n flow:   %v\n replay: %v", sched, marker, flowErr, replayErr)
			}
		}
	}
}

// A flag that cannot apply to a subcommand is not registered on it.
func TestSubcommandsRefuseInapplicableFlags(t *testing.T) {
	for _, args := range [][]string{
		{"flow", "-quick"},
		{"flow", "-repeats", "2"},
		{"flow", "-engine", "flow"},
		{"flow", "-seed", "2"},
		{"replay", "-shards", "2", "-gen", "5"},
		{"replay", "-all"},
		{"replay", "-jobs", "2", "-gen", "5"},
	} {
		_, err := capture(t, args...)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%v: err = %v, want a usage error", args, err)
		}
	}
}

// captureStderr runs fn with os.Stderr redirected to a file and returns
// what was written.
func captureStderr(t *testing.T, fn func()) string {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stderr
	os.Stderr = f
	defer func() { os.Stderr = old }()
	fn()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// -progress reaches every packet simulation: the static figures, pfc and
// pool used to build their own engines and answer with zero events.
func TestProgressReachesEveryRunPath(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "t.csv")
	if err := os.WriteFile(trace, []byte("1.0,0,13,100000,0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-experiment", "fig8", "-quick"},
		{"-experiment", "pfc", "-quick"},
		{"-experiment", "pool", "-quick"},
		{"flow", "-dur", "5ms"},
		{"replay", "-trace", trace},
	} {
		stderr := captureStderr(t, func() {
			if _, err := capture(t, append(args, "-progress=1s")...); err != nil {
				t.Fatalf("%v: %v", args, err)
			}
		})
		lines := strings.Split(strings.TrimSpace(stderr), "\n")
		var last struct {
			Events int64 `json:"events"`
			Shards int   `json:"shards"`
			Final  bool  `json:"final"`
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatalf("%v: last stderr line is not a progress record: %v\n%s", args, err, stderr)
		}
		if !last.Final || last.Events == 0 || last.Shards != 1 {
			t.Errorf("%v: final progress line %+v, want events > 0 on 1 shard", args, last)
		}
	}
}

// The observers reach an ad-hoc run: a traced flow scenario writes a
// binary trace of its switch ports and flows.
func TestFlowTraceExport(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "t.bin")
	if _, err := capture(t, "flow", "-groups", "1x0,4x1", "-dur", "10ms", "-tracefile", trace); err != nil {
		t.Fatalf("traced flow run: %v", err)
	}
	kinds := traceKinds(t, trace)
	for _, k := range []obs.Kind{obs.KindEnqueue, obs.KindDequeue, obs.KindMark, obs.KindFlowStart} {
		if kinds[k] == 0 {
			t.Errorf("trace has no %v events", k)
		}
	}
}

// FuzzParseGroups: any -groups string yields an error or a flow list
// inside the dumbbell's bounds, never a panic.
func FuzzParseGroups(f *testing.F) {
	for _, seed := range []string{"1x0, 8x1,2x3", "", "x1", "1x", "0x1", "-1x0", "1x-2", "ax b", "998x63", "999x0", "1x64", "9223372036854775807x0", ",,1x1,,"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		services, err := parseGroups(s)
		if err != nil {
			return
		}
		if len(services) < 1 || len(services) > maxFlows {
			t.Fatalf("parseGroups(%q): %d flows", s, len(services))
		}
		for _, svc := range services {
			if svc < 0 || svc >= maxServices {
				t.Fatalf("parseGroups(%q): service %d", s, svc)
			}
		}
	})
}
