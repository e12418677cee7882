package pmsb_test

import (
	"io"
	"testing"
	"time"

	"pmsb/internal/obs"
	obsrt "pmsb/internal/obs/runtime"
	"pmsb/internal/pkt"
	"pmsb/internal/sim"
)

// The runtime-introspection differential gate: enabling every
// self-observation surface at once — coordinator runtime stats, a live
// progress monitor with a fast sampler attached, and pool stats — must
// leave the simulation byte-identical to an uninstrumented run. The
// instrumented runs cover serial, channel@4, and channel@8 on the
// k=8 fat-tree workload: trace, FCTs, and processed-event counts are
// compared event by event, and the harvested stats are checked for the
// signals pmsbstat -runtime reports on.
func TestDifferentialRuntimeIntrospection(t *testing.T) {
	specs := fatTreeCrossPodSpecs()
	const until = 50 * time.Millisecond
	baseline := runShardedFatTree(t, 0, specs, until)
	if len(baseline.trace) == 0 {
		t.Fatal("empty trace: the workload recorded nothing")
	}

	pkt.EnablePoolStats(true)
	defer pkt.EnablePoolStats(false)

	// instrumented runs runShardedFatTree's workload with the full
	// introspection surface attached and returns the harvested stats.
	instrumented := func(shards int) (workloadResult, obsrt.Snapshot) {
		podBus := make([]*obs.Bus, 8)
		for p := range podBus {
			podBus[p] = obs.NewTraceBus(1 << 14)
		}
		mon := sim.NewMonitor()
		// A deliberately fast sampler maximizes concurrent snapshot reads
		// while the run executes; its output is discarded.
		sampler := obsrt.StartSampler(io.Discard, mon, 100*time.Microsecond)
		defer sampler.Stop()
		coll := obsrt.NewCollector()
		var gotCoord *sim.Coordinator
		var gotEng *sim.Engine
		res := driveShardedFatTree(t, shards, specs, until, podBus,
			func(coord *sim.Coordinator, eng *sim.Engine) {
				gotCoord, gotEng = coord, eng
				if coord != nil {
					coord.SetMonitor(mon)
					coord.EnableRuntimeStats()
				} else {
					eng.SetMonitor(mon)
				}
			})
		res.trace = busTrace(podBus...)
		sampler.Stop()
		if gotCoord != nil {
			coll.ObserveCoordinator(gotCoord)
		} else {
			coll.ObserveSerial(gotEng)
		}
		return res, coll.Snapshot()
	}

	for _, run := range []struct {
		name   string
		shards int
	}{
		{"serial", 0},
		{"channel@4", 4},
		{"channel@8", 8},
	} {
		res, snap := instrumented(run.shards)
		assertIdenticalRuns(t, "introspected-"+run.name, baseline, res)
		if run.shards == 0 {
			if snap.Engines[0].Processed != baseline.processed {
				t.Errorf("%s: collector saw %d events, run processed %d",
					run.name, snap.Engines[0].Processed, baseline.processed)
			}
			continue
		}
		if snap.Coord == nil {
			t.Fatalf("%s: no coordinator stats collected", run.name)
		}
		var events, grants uint64
		for _, s := range snap.Coord.PerShard {
			events += s.Events
			grants += s.Grants
		}
		if events != baseline.processed {
			t.Errorf("%s: per-shard events sum to %d, run processed %d",
				run.name, events, baseline.processed)
		}
		if grants == 0 {
			t.Errorf("%s: no windows recorded", run.name)
		}
		var busy time.Duration
		for _, w := range snap.Coord.PerWorker {
			busy += w.Busy
		}
		if busy <= 0 {
			t.Errorf("%s: no worker busy time accounted", run.name)
		}
	}
}

// Two instrumented runs are as self-deterministic as two bare runs: the
// schedule-sensitive channel path at 8 shards with monitors and stats
// on must reproduce itself byte for byte.
func TestDifferentialRuntimeSelfDeterminism(t *testing.T) {
	specs := fatTreeCrossPodSpecs()
	const until = 50 * time.Millisecond
	run := func() workloadResult {
		podBus := make([]*obs.Bus, 8)
		for p := range podBus {
			podBus[p] = obs.NewTraceBus(1 << 14)
		}
		mon := sim.NewMonitor()
		sampler := obsrt.StartSampler(io.Discard, mon, 200*time.Microsecond)
		defer sampler.Stop()
		res := driveShardedFatTree(t, 8, specs, until, podBus,
			func(coord *sim.Coordinator, eng *sim.Engine) {
				coord.SetMonitor(mon)
				coord.EnableRuntimeStats()
			})
		res.trace = busTrace(podBus...)
		return res
	}
	a := run()
	b := run()
	assertIdenticalRuns(t, "introspected channel@8 repeat", a, b)
}
