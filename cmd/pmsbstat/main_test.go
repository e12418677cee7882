package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pmsb/internal/experiment"
	"pmsb/internal/obs"
	"pmsb/internal/pkt"
)

// writeTrace synthesizes a small two-queue trace with a known shape and
// returns its path: queue 0 oscillates around 3000 bytes, queue 1 around
// 1500, with one mark and a two-flow lifecycle.
func writeTrace(t *testing.T) string {
	t.Helper()
	bus := obs.NewBus(1024)
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
	// Queue 0's depth samples are 3000 (enqueue) and 1500 (dequeue); its
	// max must be 3000, queue 1's 1500.
	if !strings.Contains(out, "1000\t0\t0\t") || !strings.Contains(out, "\t3000\n") {
		t.Errorf("queue-0 depth row wrong:\n%s", out)
	}
	// Flow 7 finished with 9000 bytes and a 9ms FCT.
	if !strings.Contains(out, "7\t0\t9000\t1\t") || !strings.Contains(out, "9ms") {
		t.Errorf("flow row wrong:\n%s", out)
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

// TestStreamedReport: a report without the per-flow table takes the
// streaming column-wise path; its output must be byte-identical to the
// materializing path's over the same trace (the -top 1 report minus its
// flow section).
func TestStreamedReport(t *testing.T) {
	trace := writeTrace(t)
	materialized := func(args ...string) string {
		t.Helper()
		out, err := capture(t, append(append([]string{"-top", "1"}, args...), trace)...)
		if err != nil {
			t.Fatalf("materializing report %v: %v", args, err)
		}
		head, _, ok := strings.Cut(out, "\n## top 1 flows")
		if !ok {
			t.Fatalf("materializing report %v has no flow section:\n%s", args, out)
		}
		return head
	}
	// Every flag shape streams: with and without the mark-rate timeline
	// (it folds order-insensitively, so it streams too), and with the
	// range flags applied.
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
		if want := materialized(fl...); streamed != want {
			t.Errorf("streamed report %v differs from materialized:\nmaterialized:\n%s\nstreamed:\n%s", fl, want, streamed)
		}
	}

	// An out-of-range window errors like the materializing path.
	if _, err := capture(t, "-since", "1h", "-top", "0", trace); err == nil {
		t.Error("empty streamed window did not error")
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
		paths   []string
		buses   []*obs.Bus
		streams [][]obs.Event
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
		streams = append(streams, bus.Ring().Events())
	}
	want := obs.MergeEvents(streams...)

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
		bus := obs.NewBus(64)
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
	for _, node := range []string{"1000\t0\t0\t", "1001\t0\t0\t"} {
		if !strings.Contains(out, node) {
			t.Errorf("merged depth table missing node row %q:\n%s", node, out)
		}
	}
}
