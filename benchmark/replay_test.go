package main

import (
	"testing"

	"pmsb/internal/sim"
)

// On a tiny recorded run the replay pops exactly what it scheduled —
// two events per recorded dequeue, one per flow start and one
// RTO-horizon timer per flow — in non-decreasing time, on both queues.
func TestReplayPopsWhatItScheduled(t *testing.T) {
	r := fatTreeRun{k: 4, flows: 3200, load: 0.3, ports: fatTree8.ports}
	e := rep(t, variantTraced, func(e *repEnv) error { return runFatTree(e, r) })
	w := e.tr.windows[0]
	if len(w.recs) == 0 || len(w.starts) != e.res.Units {
		t.Fatalf("recorded %d dequeues and %d starts for %d flows", len(w.recs), len(w.starts), e.res.Units)
	}
	want := uint64(2*len(w.recs) + 2*len(w.starts))
	for _, kind := range []sim.QueueKind{sim.QueueCalendar, sim.QueueHeap} {
		got := replayWindow(w, kind)
		if got.popped != want || got.scheduled != want || !got.monotone {
			t.Errorf("queue kind %v: scheduled %d, popped %d (want %d), monotone %v", kind, got.scheduled, got.popped, want, got.monotone)
		}
	}

	// Coverage is reported as measured: the replay holds no pacing,
	// delayed-ACK or re-armed RTO events, and counts the cancelled RTO
	// timers the real engine reaps without executing.
	cov := e.res.Layer["sim.replay_coverage"]
	if got := float64(want) / float64(e.res.Events); cov != got {
		t.Errorf("sim.replay_coverage = %v, want replayed/real = %v", cov, got)
	}
	if e.res.Layer["sim.replay_ns_per_event"] <= 0 || e.res.Layer["sim.replay_heap_ns_per_event"] <= 0 ||
		e.res.Layer["sim.replay_floor_ns_per_event"] <= 0 {
		t.Errorf("replay timings missing: %v", e.res.Layer)
	}
}
