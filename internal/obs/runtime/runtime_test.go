package runtime

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"pmsb/internal/sim"
)

// driveSharded runs a small two-shard ping-pong under the coordinator
// with runtime stats and an optional monitor attached.
func driveSharded(t *testing.T, mon *sim.Monitor) *sim.Coordinator {
	t.Helper()
	coord := sim.NewCoordinator()
	coord.EnableRuntimeStats()
	if mon != nil {
		coord.SetMonitor(mon)
	}
	a := coord.NewShard()
	b := coord.NewShard()
	ab := coord.Boundary(a, b, 5*time.Microsecond)
	ba := coord.Boundary(b, a, 5*time.Microsecond)
	var hop func(fwd bool, n int)
	hop = func(fwd bool, n int) {
		if n >= 300 {
			return
		}
		if fwd {
			ab.Send(func(any) { hop(false, n+1) }, nil)
		} else {
			ba.Send(func(any) { hop(true, n+1) }, nil)
		}
	}
	a.Engine().ScheduleAt(0, func() { hop(true, 0) })
	coord.RunUntil(5 * time.Millisecond)
	return coord
}

// A collected sharded run survives the dump → parse round trip with
// every metric intact.
func TestSnapshotDumpRoundTrip(t *testing.T) {
	coll := NewCollector()
	coll.ObserveCoordinator(driveSharded(t, nil))
	snap := coll.Snapshot()

	vals := snap.Values()
	if vals["runtime.runs"] != 1 {
		t.Fatalf("runs = %d, want 1", vals["runtime.runs"])
	}
	if vals["runtime.coord.shards"] != 2 {
		t.Fatalf("shards = %d, want 2", vals["runtime.coord.shards"])
	}
	if vals["runtime.shard.0.events"] == 0 || vals["runtime.shard.1.events"] == 0 {
		t.Fatal("per-shard event counters empty")
	}
	if vals["runtime.coord.wall_ns"] <= 0 {
		t.Fatal("wall time missing from dump values")
	}

	var buf bytes.Buffer
	n, err := snap.WriteTo(&buf)
	if err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	// Sorted, one metric per line.
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	for i := 1; i < len(lines); i++ {
		if lines[i-1] >= lines[i] {
			t.Fatalf("dump not sorted: %q >= %q", lines[i-1], lines[i])
		}
	}

	parsed, err := ParseDump(&buf)
	if err != nil {
		t.Fatalf("ParseDump: %v", err)
	}
	if len(parsed) != len(vals) {
		t.Fatalf("round trip kept %d metrics, want %d", len(parsed), len(vals))
	}
	for k, v := range vals {
		if parsed[k] != v {
			t.Fatalf("metric %s: %d != %d after round trip", k, parsed[k], v)
		}
	}
}

// ParseDump refuses any line that is not name<TAB>integer and names the
// line, so a damaged dump fails instead of reporting what happened to
// parse.
func TestParseDumpRefusesMalformed(t *testing.T) {
	vals, err := ParseDump(strings.NewReader("a.count\t3\nc.value\t-9\n"))
	if err != nil || len(vals) != 2 || vals["a.count"] != 3 || vals["c.value"] != -9 {
		t.Fatalf("well-formed dump: %v, %v", vals, err)
	}
	for _, tc := range []struct{ in, line string }{
		{"runtime.shards\t1\nplain line no tab\n", "line 2"},
		{"runtime.shard.0.events\tNaN\n", "line 1"},
		{"a\t1\nb.hist\tcount=2 mean=1\n", "line 2"},
		{"a\t1\n\nb\t2\n", "line 2"},
		{"\t5\n", "line 1"},
		{"a\t1\t2\n", "line 1"},
	} {
		if _, err := ParseDump(strings.NewReader(tc.in)); err == nil || !strings.Contains(err.Error(), tc.line) {
			t.Errorf("ParseDump(%q) err = %v, want one naming %s", tc.in, err, tc.line)
		}
	}
}

// FuzzParseDump: a snapshot built from the fuzzed counters survives
// WriteTo → ParseDump intact, and arbitrary bytes parse or fail with an
// error, never a panic; what does parse writes back to the same map.
func FuzzParseDump(f *testing.F) {
	f.Add(int64(3), int64(1<<40), int64(-1), []byte("runtime.runs\t1\n"))
	f.Add(int64(0), int64(0), int64(0), []byte("runtime.shards\t1\ngarbage\nx.events\tNaN\n"))
	f.Add(int64(1), int64(9), int64(7), []byte("a\t\n\tb\n\n"))
	f.Fuzz(func(t *testing.T, runs, processed, walk int64, data []byte) {
		snap := Snapshot{
			Runs: int(runs),
			Engines: map[int]sim.EngineStats{0: {
				Processed: uint64(processed),
				Queue:     sim.QueueStats{WalkMax: int(walk)},
			}},
		}
		var buf bytes.Buffer
		if _, err := snap.WriteTo(&buf); err != nil {
			t.Fatalf("WriteTo: %v", err)
		}
		parsed, err := ParseDump(&buf)
		if err != nil {
			t.Fatalf("ParseDump of a written dump: %v\n%s", err, buf.String())
		}
		if want := snap.Values(); !reflect.DeepEqual(parsed, want) {
			t.Fatalf("round trip: %v, want %v", parsed, want)
		}

		vals, err := ParseDump(bytes.NewReader(data))
		if err != nil {
			return
		}
		var again strings.Builder
		for name, v := range vals {
			fmt.Fprintf(&again, "%s\t%d\n", name, v)
		}
		back, err := ParseDump(strings.NewReader(again.String()))
		if err != nil || !reflect.DeepEqual(back, vals) {
			t.Fatalf("parsed %v, rewritten and re-parsed %v (%v)", vals, back, err)
		}
	})
}

// Observations of the same shape merge: counters sum, high-water marks
// max, and the run count tracks every observation.
func TestCollectorMerges(t *testing.T) {
	coll := NewCollector()
	c1 := driveSharded(t, nil)
	c2 := driveSharded(t, nil)
	coll.ObserveCoordinator(c1)
	snap1 := coll.Snapshot()
	coll.ObserveCoordinator(c2)
	snap2 := coll.Snapshot()
	if snap2.Runs != 2 {
		t.Fatalf("runs = %d, want 2", snap2.Runs)
	}
	st1, _ := c1.RuntimeStats()
	st2, _ := c2.RuntimeStats()
	if got, want := snap2.Coord.PerShard[0].Events, st1.PerShard[0].Events+st2.PerShard[0].Events; got != want {
		t.Fatalf("shard 0 events = %d after merge, want %d", got, want)
	}
	if snap2.Coord.Wall < snap1.Coord.Wall {
		t.Fatalf("wall time shrank on merge: %v -> %v", snap1.Coord.Wall, snap2.Coord.Wall)
	}
	if got, want := snap2.Engines[0].Processed, st1.PerShard[0].Events+st2.PerShard[0].Events; got != want {
		t.Fatalf("engine 0 processed = %d after merge, want %d", got, want)
	}
}

// The report renders every diagnosis section from a real dump without
// error, and a serial dump degrades gracefully.
func TestReportSections(t *testing.T) {
	coll := NewCollector()
	coll.ObserveCoordinator(driveSharded(t, nil))
	var buf bytes.Buffer
	if err := Report(&buf, coll.Snapshot().Values()); err != nil {
		t.Fatalf("Report: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"coordinator", "imbalance", "null-advance", "workers", "queue: calendar",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q section:\n%s", want, out)
		}
	}

	serial := NewCollector()
	eng := sim.NewEngine()
	eng.Schedule(time.Microsecond, func() {})
	eng.RunUntil(time.Millisecond)
	serial.ObserveSerial(eng)
	buf.Reset()
	if err := Report(&buf, serial.Snapshot().Values()); err != nil {
		t.Fatalf("Report (serial): %v", err)
	}
	if !strings.Contains(buf.String(), "serial run") {
		t.Fatalf("serial report missing fallback header:\n%s", buf.String())
	}
}

// The queue line reports the calendar's geometry, the longest chain
// walk over every observed run, and overflow migrations: a sparse run
// walks no chain, one that crowds a calendar slice does.
func TestReportQueueLine(t *testing.T) {
	coll := NewCollector()
	sparse := sim.NewEngine()
	for i := 0; i < 10; i++ {
		sparse.Schedule(time.Duration(i)*time.Microsecond, func() {})
	}
	sparse.Run()
	coll.ObserveSerial(sparse)
	if vals := coll.Snapshot().Values(); vals["runtime.engine.0.queue.walk_max"] != 0 {
		t.Fatalf("sparse run walked a chain: %v", vals)
	}
	crowded := sim.NewEngine()
	for i := 0; i < 500; i++ {
		crowded.Schedule(time.Duration(i*7919%1000)/64, func() {})
	}
	crowded.Run()
	coll.ObserveSerial(crowded)

	vals := coll.Snapshot().Values()
	walk := vals["runtime.engine.0.queue.walk_max"]
	if walk == 0 || int(walk) != crowded.Stats().Queue.WalkMax {
		t.Fatalf("walk_max row %d, crowded run walked %d", walk, crowded.Stats().Queue.WalkMax)
	}
	var buf bytes.Buffer
	if err := Report(&buf, vals); err != nil {
		t.Fatalf("Report: %v", err)
	}
	want := fmt.Sprintf("queue: calendar %d x %v slices, walk max %d,",
		vals["runtime.engine.0.queue.buckets"], time.Duration(vals["runtime.engine.0.queue.width_ns"]), walk)
	if !strings.Contains(buf.String(), want) {
		t.Fatalf("report missing %q:\n%s", want, buf.String())
	}
}

// The sampler emits valid JSON progress lines, ends with a final line
// reflecting the monitor's last published state, and Stop is
// idempotent.
func TestSamplerEmitsProgress(t *testing.T) {
	mon := sim.NewMonitor()
	var buf bytes.Buffer
	s := StartSampler(&buf, mon, time.Millisecond)
	coord := driveSharded(t, mon)
	time.Sleep(5 * time.Millisecond) // let a few ticks land
	s.Stop()
	s.Stop()

	var lines []ProgressLine
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var l ProgressLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("bad progress line %q: %v", sc.Text(), err)
		}
		lines = append(lines, l)
	}
	if len(lines) == 0 {
		t.Fatal("sampler emitted no lines")
	}
	last := lines[len(lines)-1]
	if !last.Final {
		t.Fatalf("last line not final: %+v", last)
	}
	if last.Events != coord.Processed() {
		t.Fatalf("final line reports %d events, run processed %d", last.Events, coord.Processed())
	}
	if last.Shards != 2 {
		t.Fatalf("final line reports %d shards, want 2", last.Shards)
	}
	if last.SimMS != 5 {
		t.Fatalf("final line frontier %vms, want 5ms", last.SimMS)
	}
	for i := 1; i < len(lines); i++ {
		if lines[i].WallS < lines[i-1].WallS || lines[i].Events < lines[i-1].Events {
			t.Fatalf("progress regressed between lines: %+v -> %+v", lines[i-1], lines[i])
		}
	}
}
