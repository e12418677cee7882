package runtime

import (
	"bytes"
	"os"
	"strings"
	"testing"
	"time"

	"pmsb/internal/pkt"
	"pmsb/internal/sim"
)

// testdata/dump_v1.rtstats pins the runtime dump format: the bytes
// Snapshot.WriteTo writes for fixtureSnapshot — a sharded run with two
// shards, two workers, two engines and pool counters, so every row kind
// of the dump is present. testdata/dump_v1.report is its pmsbstat
// -runtime report. Both were written once and must never be
// regenerated: a change to a dump name or to the report shows up as a
// diff against them.
const (
	fixtureDump   = "testdata/dump_v1.rtstats"
	fixtureReport = "testdata/dump_v1.report"
)

var fixtureSnapshot = Snapshot{
	Runs: 1,
	Coord: &sim.CoordinatorStats{
		Mode:         "channel",
		RelaxRounds:  3_210,
		GrantCalls:   1_500,
		Wall:         42_123_456 * time.Nanosecond,
		CoordBlocked: 9_876_543 * time.Nanosecond,
		PerShard: []sim.ShardStats{
			{Grants: 1_200, GrantWidth: 2_400_000 * time.Nanosecond, NullAdvances: 640,
				OutboxSent: 5_150, Parked: 37, Events: 812_345, Busy: 30_500_000 * time.Nanosecond},
			{Grants: 1_180, GrantWidth: 2_360_000 * time.Nanosecond, NullAdvances: 655,
				OutboxSent: 4_980, Parked: 41, Events: 598_112, Busy: 21_250_000 * time.Nanosecond},
		},
		PerWorker: []sim.WorkerStats{
			{Windows: 1_210, Busy: 29_000_000 * time.Nanosecond, Blocked: 4_000_000 * time.Nanosecond,
				Idle: 8_500_000 * time.Nanosecond},
			{Windows: 1_170, Busy: 22_750_000 * time.Nanosecond, Blocked: 6_500_000 * time.Nanosecond,
				Idle: 12_000_000 * time.Nanosecond},
		},
	},
	Engines: map[int]sim.EngineStats{
		0: {Processed: 812_345, Pending: 12, HiWater: 4_321, FreeList: 512,
			Queue: sim.QueueStats{Kind: "calendar", Buckets: 4_096, Width: 16 * time.Nanosecond,
				Migrations: 17, WalkMax: 9}},
		1: {Processed: 598_112, Pending: 3, HiWater: 3_876, FreeList: 448,
			Queue: sim.QueueStats{Kind: "calendar", Buckets: 4_096, Width: 16 * time.Nanosecond,
				Migrations: 5, WalkMax: 7}},
	},
	Pool: pkt.PoolStats{Gets: 703_000, Releases: 702_950, InUse: 50, HiWater: 1_874},
}

// TestDumpFixture holds Snapshot.WriteTo to the committed dump bytes,
// and ParseDump plus Report — pmsbstat -runtime — to the committed
// report.
func TestDumpFixture(t *testing.T) {
	raw, err := os.ReadFile(fixtureDump)
	if err != nil {
		t.Fatal(err)
	}
	report, err := os.ReadFile(fixtureReport)
	if err != nil {
		t.Fatal(err)
	}

	var dump bytes.Buffer
	if _, err := fixtureSnapshot.WriteTo(&dump); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dump.Bytes(), raw) {
		t.Errorf("WriteTo no longer writes the committed dump:\n%s\nwant:\n%s", dump.Bytes(), raw)
	}

	vals, err := ParseDump(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("ParseDump: %v", err)
	}
	var got strings.Builder
	if err := Report(&got, vals); err != nil {
		t.Fatal(err)
	}
	if got.String() != string(report) {
		t.Errorf("report of the committed dump:\n%s\nwant:\n%s", got.String(), report)
	}
}
