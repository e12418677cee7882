package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"pmsb/internal/experiment"
	"pmsb/internal/obs"
	obsrt "pmsb/internal/obs/runtime"
	"pmsb/internal/pkt"
)

// writeTrace synthesizes a small two-queue trace with a known shape and
// returns its path: queue 0 oscillates around 3000 bytes, queue 1 around
// 1500, with one mark, one drop on a queue that sees nothing else and a
// flow lifecycle.
func writeTrace(t *testing.T) string {
	t.Helper()
	bus := obs.NewTraceBus(1024)
	probe := bus.ObservePort(obs.PortID{Node: 1000, Port: 0}, 2)
	fp := bus.OpenFlow(0, 7, 0, 9000)
	p := &pkt.Packet{Flow: 7, ID: 1, Size: 1500}
	for i := 0; i < 10; i++ {
		at := time.Duration(i) * time.Millisecond
		probe.Enqueue(at, 0, p, 4500, 3000)
		probe.Enqueue(at, 1, p, 4500, 1500)
		probe.Dequeue(at+time.Millisecond/2, 0, p, 3000, 1500)
	}
	probe.Mark(5*time.Millisecond, 0, p, 4500, 3000)
	probe.Drop(6*time.Millisecond, 2, p, obs.DropPortBuffer)
	fp.Finish(9*time.Millisecond, 9*time.Millisecond, 9000)

	path := filepath.Join(t.TempDir(), "trace.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := bus.Ring().WriteBinary(f); err != nil {
		t.Fatal(err)
	}
	return path
}

func capture(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var buf bytes.Buffer
	err := run(args, &buf)
	return buf.String(), err
}

func TestReport(t *testing.T) {
	out, err := capture(t, writeTrace(t))
	if err != nil {
		t.Fatalf("pmsbstat: %v", err)
	}
	for _, want := range []string{
		"## events by kind",
		"enqueue", "dequeue", "mark", "flow-finish",
		"## queue depth",
		"## mark rate",
		"## top 10 flows",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	// Queue 0's depth samples are 3000 (enqueue) and 1500 (dequeue), and
	// it sent ten 1500-byte packets, one marked; queue 1 only enqueued;
	// queue 2 only dropped, so it has no depth statistics.
	for _, row := range []string{
		"1000\t0\t0\t20\t2250\t2250\t3000\t3000\t3000\t10\t15000\t1\t0\n",
		"1000\t0\t1\t10\t1500\t1500\t1500\t1500\t1500\t0\t0\t0\t0\n",
		"1000\t0\t2\t0\t-\t-\t-\t-\t-\t0\t0\t0\t1\n",
	} {
		if !strings.Contains(out, row) {
			t.Errorf("queue table lacks row %q:\n%s", row, out)
		}
	}
	// Flow 7 finished with 9000 bytes and a 9ms FCT.
	if !strings.Contains(out, "7\t0\t9000\t1\t") || !strings.Contains(out, "9ms") {
		t.Errorf("flow row wrong:\n%s", out)
	}
	if want := "# fct: 1 of 1 flows finished, mean 9ms, p50 9ms, p99 9ms, max 9ms\n"; !strings.Contains(out, want) {
		t.Errorf("report lacks the FCT summary %q:\n%s", want, out)
	}
}

func TestSectionFlags(t *testing.T) {
	trace := writeTrace(t)
	out, err := capture(t, "-depth=false", "-marks=false", "-counts=false", "-top", "0", trace)
	if err != nil {
		t.Fatal(err)
	}
	for _, banned := range []string{"## queue depth", "## mark rate", "## events by kind", "## top"} {
		if strings.Contains(out, banned) {
			t.Errorf("section %q not suppressed:\n%s", banned, out)
		}
	}
	if !strings.Contains(out, "# trace:") {
		t.Errorf("header missing:\n%s", out)
	}
}

func TestBadInput(t *testing.T) {
	if _, err := capture(t); err == nil {
		t.Error("no args must fail")
	}
	if _, err := capture(t, filepath.Join(t.TempDir(), "missing.bin")); err == nil {
		t.Error("missing file must fail")
	}
	empty := filepath.Join(t.TempDir(), "empty.bin")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := capture(t, empty); err == nil {
		t.Error("empty trace must fail")
	}
	// Anything that is not a binary trace — garbage, or a JSONL export
	// fed back in — fails on both report paths with the one error that
	// names the format problem.
	exported, err := capture(t, "-export", writeTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	for name, raw := range map[string][]byte{
		"garbage.bin":  {0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08},
		"export.jsonl": []byte(exported),
	} {
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, args := range [][]string{{path}, {"-top", "0", path}, {"-export", path}} {
			out, err := capture(t, args...)
			if err == nil {
				t.Errorf("%v must fail", args)
			} else if !strings.Contains(err.Error(), "not a binary trace") || !strings.Contains(err.Error(), "PMSBTRC1") {
				t.Errorf("%v: error should name the format problem and the magic, got: %v\n%s", args, err, out)
			}
		}
	}
}

// TestBinaryReport: the report and the export are two views of the
// same decoded events — the export holds exactly as many lines as the
// report's header counts, with and without a time window.
func TestBinaryReport(t *testing.T) {
	trace := writeTrace(t)
	for _, window := range [][]string{nil, {"-since", "2ms", "-until", "7ms"}} {
		rep, err := capture(t, append(window, trace)...)
		if err != nil {
			t.Fatalf("report %v: %v", window, err)
		}
		exp, err := capture(t, append(append([]string{"-export"}, window...), trace)...)
		if err != nil {
			t.Fatalf("export %v: %v", window, err)
		}
		lines := strings.Count(exp, "\n")
		if want := fmt.Sprintf("# trace: %d events,", lines); !strings.HasPrefix(rep, want) {
			t.Errorf("%v: export has %d lines but the report starts %q", window, lines, strings.SplitN(rep, "\n", 2)[0])
		}
	}
}

// TestStreamedReport: the flow table is one more reduction of the same
// streamed pass — turning it on (it decodes extra columns) leaves every
// other section byte-identical to the -top 0 report.
func TestStreamedReport(t *testing.T) {
	trace := writeTrace(t)
	withFlows := func(args ...string) string {
		t.Helper()
		out, err := capture(t, append(append([]string{"-top", "1"}, args...), trace)...)
		if err != nil {
			t.Fatalf("report %v: %v", args, err)
		}
		head, _, ok := strings.Cut(out, "\n## top 1 flows")
		if !ok {
			t.Fatalf("report %v has no flow section:\n%s", args, out)
		}
		return head
	}
	for _, fl := range [][]string{
		{"-marks=false"},
		{},
		{"-bin", "500us"},
		{"-since", "2ms", "-until", "7ms"},
	} {
		streamed, err := capture(t, append(append([]string{"-top", "0"}, fl...), trace)...)
		if err != nil {
			t.Fatalf("streaming report %v: %v", fl, err)
		}
		if want := withFlows(fl...); streamed != want {
			t.Errorf("report %v changes with the flow table on:\nwith:\n%s\nwithout:\n%s", fl, want, streamed)
		}
	}

	// An out-of-range window errors, with and without the flow table.
	for _, top := range []string{"0", "10"} {
		if _, err := capture(t, "-since", "1h", "-top", top, trace); err == nil {
			t.Errorf("-top %s: empty window did not error", top)
		}
	}
}

// TestBinWidth: a bin width <= 0 is a usage error, refused before any
// file is read (the trace named here does not exist).
func TestBinWidth(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.bin")
	for _, args := range [][]string{{"-bin", "0"}, {"-bin", "-1ms"}, {"-top", "0", "-bin", "0"}} {
		_, err := capture(t, append(args, missing)...)
		if err == nil || !strings.Contains(err.Error(), "-bin") {
			t.Errorf("%v: err = %v, want a -bin usage error", args, err)
		}
	}
}

// TestEmptyWindowNamesEveryFile: when no event of several traces falls
// in the window, the error names all of them.
func TestEmptyWindowNamesEveryFile(t *testing.T) {
	a, b := writeTrace(t), writeTrace(t)
	for _, extra := range [][]string{nil, {"-export"}, {"-top", "0"}} {
		args := append(append(extra, "-since", "1h"), a, b)
		_, err := capture(t, args...)
		if err == nil || !strings.Contains(err.Error(), a) || !strings.Contains(err.Error(), b) {
			t.Errorf("%v: err = %v, want both trace names", extra, err)
		}
	}
}

// writeSyntheticTrace writes a trace of rounds x 64 events over the
// same 16 flows, 4 queues and 1 ms of virtual time whatever rounds is:
// flow starts, then repeated enqueue/dequeue/mark/alpha rounds, then
// finishes.
func writeSyntheticTrace(t *testing.T, path string, rounds int) {
	t.Helper()
	const flows = 16
	var events []obs.Event
	add := func(ev obs.Event) {
		ev.Seq = uint64(len(events))
		events = append(events, ev)
	}
	for f := 1; f <= flows; f++ {
		add(obs.Event{Kind: obs.KindFlowStart, Node: pkt.NoNode, Port: -1, Queue: int32(f % 4),
			Flow: pkt.FlowID(f), Size: 1 << 20})
	}
	step := time.Millisecond / time.Duration(rounds)
	for r := 0; r < rounds; r++ {
		at := time.Duration(r) * step
		for f := 1; f <= flows; f++ {
			q := int32(f % 4)
			for _, k := range []obs.Kind{obs.KindEnqueue, obs.KindDequeue, obs.KindMark} {
				add(obs.Event{T: at, Kind: k, Node: 1000, Port: 0, Queue: q,
					Flow: pkt.FlowID(f), Size: 1500, PortBytes: 9000, QueueBytes: 3000})
			}
			add(obs.Event{T: at, Kind: obs.KindAlpha, Node: pkt.NoNode, Port: -1, Queue: -1,
				Flow: pkt.FlowID(f), Size: int64(r * 1500), V: 0.5})
		}
	}
	for f := 1; f <= flows; f++ {
		add(obs.Event{T: time.Millisecond, Kind: obs.KindFlowFinish, Node: pkt.NoNode, Port: -1,
			Queue: -1, Flow: pkt.FlowID(f), Size: 1 << 20, V: float64(time.Millisecond)})
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := obs.WriteBinary(f, events); err != nil {
		t.Fatal(err)
	}
}

// TestReportMemoryBounded: the report's memory follows the topology and
// the flow count, not the trace length. Two traces with the same flows,
// queues and span, one 16x longer, must cost the default report (with
// the flow table) less than twice the allocation — a materializing
// reader would grow ~16x at 80 bytes per event. Depth percentiles are
// exempt (-depth=false): stats.Summary keeps every sample on purpose,
// for exact percentiles.
func TestReportMemoryBounded(t *testing.T) {
	dir := t.TempDir()
	small, large := filepath.Join(dir, "small.bin"), filepath.Join(dir, "large.bin")
	const rounds = 1 << 10
	writeSyntheticTrace(t, small, rounds)
	writeSyntheticTrace(t, large, 16*rounds)
	alloc := func(path string) uint64 {
		t.Helper()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if err := run([]string{"-top", "10", "-depth=false", path}, io.Discard); err != nil {
			t.Fatalf("report %s: %v", path, err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	a, b := alloc(small), alloc(large)
	t.Logf("TotalAlloc: %d B for %d events, %d B for %d events", a, 64*rounds, b, 64*16*rounds)
	if b >= 2*a {
		t.Errorf("a 16x longer trace allocates %d B against %d B (>= 2x): the report grows with the trace", b, a)
	}
}

// TestExport: the per-shard spill files of a sharded fat-tree run
// export as one JSON object per event, in the merged (time, file,
// sequence) order the report analyzes, with kinds spelled by name.
func TestExport(t *testing.T) {
	spec, err := experiment.Lookup("fattree")
	if err != nil {
		t.Fatal(err)
	}
	base := filepath.Join(t.TempDir(), "ft.bin")
	var (
		paths []string
		buses []*obs.Bus
		want  []obs.Event
	)
	for shard := 0; shard < 2; shard++ {
		paths = append(paths, obs.ShardTracePath(base, shard))
		buses = append(buses, obs.NewTraceBus(1<<16))
	}
	opt := experiment.Options{Quick: true, Seed: 1, Shards: 2, Obs: buses[0], ObsShards: buses}
	if _, _, err := experiment.RunMany([]experiment.Spec{spec}, opt, 2); err != nil {
		t.Fatal(err)
	}
	for i, bus := range buses {
		if bus.Ring().Dropped() != 0 {
			t.Fatalf("shard %d ring wrapped; grow it", i)
		}
		f, err := os.Create(paths[i])
		if err != nil {
			t.Fatal(err)
		}
		if err := bus.Ring().WriteBinary(f); err != nil {
			t.Fatal(err)
		}
		f.Close()
		want = append(want, bus.Ring().Events()...)
	}
	// The expected order, built independently of the merge: each bus's
	// stream is time-ordered, so a stable sort of the concatenation by
	// time is the (time, file, sequence) interleaving.
	sort.SliceStable(want, func(i, j int) bool { return want[i].T < want[j].T })

	cases := []struct {
		name string
		args []string
		keep func(obs.Event) bool
	}{
		{"merged", nil, func(obs.Event) bool { return true }},
		{"window", []string{"-since", "50us", "-until", "100us"}, func(ev obs.Event) bool {
			return ev.T >= 50*time.Microsecond && ev.T <= 100*time.Microsecond
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			out, err := capture(t, append(append([]string{"-export"}, c.args...), paths...)...)
			if err != nil {
				t.Fatalf("pmsbstat -export: %v", err)
			}
			lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
			n := 0
			for _, ev := range want {
				if !c.keep(ev) {
					continue
				}
				if n >= len(lines) {
					t.Fatalf("export ends after %d lines, more events expected", len(lines))
				}
				var got struct {
					Seq  uint64 `json:"seq"`
					T    int64  `json:"t"`
					Kind string `json:"kind"`
					Node int64  `json:"node"`
				}
				if err := json.Unmarshal([]byte(lines[n]), &got); err != nil {
					t.Fatalf("line %d is not one JSON object: %v\n%s", n+1, err, lines[n])
				}
				if got.Seq != ev.Seq || got.T != int64(ev.T) || got.Kind != ev.Kind.String() || got.Node != int64(ev.Node) {
					t.Fatalf("line %d = %s, want event %+v (kind %q)", n+1, lines[n], ev, ev.Kind)
				}
				n++
			}
			if n == 0 || n != len(lines) {
				t.Fatalf("export has %d lines, want %d (one per event)", len(lines), n)
			}
		})
	}
}

// TestMergedShardReport: several trace files merge into one timeline;
// the event count is the sum and the merged report parses every file's
// events.
func TestMergedShardReport(t *testing.T) {
	// Two single-bus traces with disjoint ports (as two shards would
	// produce).
	dir := t.TempDir()
	var paths []string
	for shard := 0; shard < 2; shard++ {
		bus := obs.NewTraceBus(64)
		probe := bus.ObservePort(obs.PortID{Node: pkt.NodeID(1000 + shard), Port: 0}, 1)
		p := &pkt.Packet{Flow: pkt.FlowID(shard + 1), ID: 1, Size: 1500}
		for i := 0; i < 5; i++ {
			at := time.Duration(i)*time.Millisecond + time.Duration(shard)*time.Microsecond
			probe.Enqueue(at, 0, p, 1500, 1500)
			probe.Dequeue(at+time.Millisecond/2, 0, p, 0, 0)
		}
		path := obs.ShardTracePath(filepath.Join(dir, "t.bin"), shard)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := obs.WriteBinary(f, bus.Ring().Events()); err != nil {
			t.Fatal(err)
		}
		f.Close()
		paths = append(paths, path)
	}
	out, err := capture(t, paths...)
	if err != nil {
		t.Fatalf("pmsbstat merged: %v", err)
	}
	if !strings.Contains(out, "# trace: 20 events") {
		t.Errorf("merged trace should hold 20 events:\n%s", out)
	}
	// Each shard's queue row carries its own five 1500-byte dequeues.
	for _, node := range []string{"1000\t0\t0\t", "1001\t0\t0\t"} {
		i := strings.Index(out, "\n"+node)
		if i < 0 {
			t.Errorf("merged queue table missing node row %q:\n%s", node, out)
			continue
		}
		if row, _, _ := strings.Cut(out[i+1:], "\n"); !strings.HasSuffix(row, "\t5\t7500\t0\t0") {
			t.Errorf("row %q: want 5 packets, 7500 bytes sent, no marks or drops", row)
		}
	}
	if strings.Contains(out, "segments") {
		t.Errorf("single-run shard files reported as a multi-run trace:\n%s", out)
	}
}

// The shard files of a multi-run experiment (fct-dwrr -shards 2) each
// hold every run; the report over both counts the runs as one file does.
func TestMultiRunShardReport(t *testing.T) {
	dir := t.TempDir()
	var paths []string
	for shard := 0; shard < 2; shard++ {
		bus := obs.NewTraceBus(64)
		probe := bus.ObservePort(obs.PortID{Node: pkt.NodeID(1000 + shard), Port: 0}, 1)
		p := &pkt.Packet{Flow: 1, ID: 1, Size: 1500}
		for run := 0; run < 3; run++ {
			for i := 0; i < 4; i++ { // each run restarts virtual time
				probe.Enqueue(time.Duration(i)*time.Millisecond, 0, p, 1500, 1500)
			}
		}
		path := obs.ShardTracePath(filepath.Join(dir, "t.bin"), shard)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := obs.WriteBinary(f, bus.Ring().Events()); err != nil {
			t.Fatal(err)
		}
		f.Close()
		paths = append(paths, path)
	}
	for _, files := range [][]string{paths[:1], paths} {
		out, err := capture(t, files...)
		if err != nil {
			t.Fatalf("pmsbstat %v: %v", files, err)
		}
		if head := strings.SplitN(out, "\n", 2)[0]; !strings.Contains(head, ", 3 segments") {
			t.Errorf("pmsbstat %v header %q: want 3 segments", files, head)
		}
	}
}

// Every pmsbstat flag changes what a run prints: a row per flag proves
// it against the same trace, a flag without a row fails, and so does a
// row whose flag is gone.
func TestEveryFlagBites(t *testing.T) {
	trace := writeTrace(t)
	dump := filepath.Join(t.TempDir(), "run.rtstats")
	f, err := os.Create(dump)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obsrt.NewCollector().Snapshot().WriteTo(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	// A row with want is a refusal: the flagged run must fail saying so.
	bites := []struct {
		flag       string
		base, with []string
		want       string
	}{
		{"bin", []string{trace}, []string{"-bin", "500us"}, ""},
		{"top", []string{trace}, []string{"-top", "0"}, ""},
		{"depth", []string{trace}, []string{"-depth=false"}, ""},
		{"marks", []string{trace}, []string{"-marks=false"}, ""},
		{"counts", []string{trace}, []string{"-counts=false"}, ""},
		{"since", []string{trace}, []string{"-since", "5ms"}, ""},
		{"until", []string{trace}, []string{"-until", "5ms"}, ""},
		{"export", []string{trace}, []string{"-export"}, ""},
		{"runtime", []string{dump}, []string{"-runtime"}, ""},
		{"bin", []string{"-export", trace}, []string{"-bin", "2ms"}, "-bin does not apply to -export"},
		{"top", []string{"-export", trace}, []string{"-top", "1"}, "-top does not apply to -export"},
		{"depth", []string{"-export", trace}, []string{"-depth=false"}, "-depth does not apply to -export"},
		{"marks", []string{"-export", trace}, []string{"-marks=false"}, "-marks does not apply to -export"},
		{"counts", []string{"-export", trace}, []string{"-counts=false"}, "-counts does not apply to -export"},
		{"bin", []string{"-runtime", dump}, []string{"-bin", "2ms"}, "-bin does not apply to -runtime"},
		{"top", []string{"-runtime", dump}, []string{"-top", "1"}, "-top does not apply to -runtime"},
		{"since", []string{"-runtime", dump}, []string{"-since", "5ms"}, "-since does not apply to -runtime"},
		{"until", []string{"-runtime", dump}, []string{"-until", "5ms"}, "-until does not apply to -runtime"},
		{"export", []string{"-runtime", dump}, []string{"-export"}, "-export does not apply to -runtime"},
	}
	fs, _ := newFlagSet()
	covered := map[string]bool{}
	for _, b := range bites {
		covered[b.flag] = true
	}
	fs.VisitAll(func(f *flag.Flag) {
		if !covered[f.Name] {
			t.Errorf("pmsbstat -%s has no row: show what it changes", f.Name)
		}
		delete(covered, f.Name)
	})
	for name := range covered {
		t.Errorf("row for pmsbstat -%s, which is not a flag", name)
	}
	for _, b := range bites {
		out0, err0 := capture(t, b.base...)
		out1, err1 := capture(t, append(slices.Clone(b.with), b.base...)...)
		switch {
		case out0 == out1 && fmt.Sprint(err0) == fmt.Sprint(err1):
			t.Errorf("pmsbstat %v: adding %v changed nothing", b.base, b.with)
		case b.want != "" && (err1 == nil || !strings.Contains(err1.Error(), b.want) || out1 != ""):
			t.Errorf("pmsbstat %v: adding %v printed %d bytes, err %v; want a refusal %q", b.base, b.with, len(out1), err1, b.want)
		}
	}
}
