package sim

import (
	"math/rand"
	"testing"
	"time"
)

// forEachQueue runs a subtest against both scheduler implementations.
func forEachQueue(t *testing.T, fn func(t *testing.T, kind QueueKind)) {
	t.Helper()
	for _, k := range []struct {
		name string
		kind QueueKind
	}{{"calendar", QueueCalendar}, {"heap", QueueHeap}} {
		t.Run(k.name, func(t *testing.T) { fn(t, k.kind) })
	}
}

// script shapes one traceWorkload run: how wide the near-future spread
// is, how many events each near step plants, and how hard the run drains
// as it goes.
type script struct {
	name       string
	nearSpread time.Duration // near-future delays fall in [0, nearSpread)
	burst      int           // events per same-instant burst
	drainEvery int           // steps between drains
	drainN     int           // events executed per drain
}

// sparse keeps a few dozen near events pending, spread over the window:
// bitmap jumps across empty slices and overflow migration both run.
// dense plants a thousand-event near future that crowds the slices, so
// inserts walk their sorted chains as well.
var (
	sparse = script{"sparse", 20 * time.Microsecond, 2, 5, 8}
	dense  = script{"dense", 50 * time.Microsecond, 3, 50, 20}
)

// traceWorkload drives one engine through a scripted random workload —
// bursts of near and far timers, cancellations, and nested scheduling
// from inside callbacks — and returns the execution trace as
// (time, id) pairs plus the engine's queue profile at the end.
func traceWorkload(kind QueueKind, sc script, seed int64) ([]struct {
	at time.Duration
	id int
}, QueueStats) {
	type rec = struct {
		at time.Duration
		id int
	}
	rng := rand.New(rand.NewSource(seed))
	e := NewEngineWithQueue(kind)
	var trace []rec
	nextID := 0
	var timers []Timer

	// schedule plants one event; a third of the fired events reschedule
	// a follow-up (exercising record recycling mid-run), driven by the
	// callback's own id so both engines script identically.
	var schedule func(delay time.Duration)
	schedule = func(delay time.Duration) {
		id := nextID
		nextID++
		timers = append(timers, e.ScheduleCall(delay, func(arg any) {
			trace = append(trace, rec{e.Now(), arg.(int)})
			if arg.(int)%3 == 0 {
				schedule(time.Duration(arg.(int)%7) * 100 * time.Nanosecond)
			}
		}, id))
	}

	for i := 0; i < 2000; i++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4: // near future: sub-window packet-scale delays
			schedule(time.Duration(rng.Int63n(int64(sc.nearSpread))))
		case 5, 6: // same-instant bursts
			d := time.Duration(rng.Int63n(int64(sc.nearSpread / 5)))
			for j := 0; j < sc.burst; j++ {
				schedule(d)
			}
		case 7, 8: // far future: overflow-tier residents (RTO/ticker scale)
			schedule(time.Duration(rng.Int63n(int64(50*time.Millisecond))) + 10*time.Millisecond)
		case 9: // cancel a random earlier timer
			if len(timers) > 0 {
				timers[rng.Intn(len(timers))].Cancel()
			}
		}
		// Drain as we go, so inserts interleave with pops and the
		// calendar's window slides mid-workload.
		if i%sc.drainEvery == sc.drainEvery-1 {
			for j := 0; j < sc.drainN; j++ {
				e.Step()
			}
		}
	}
	e.Run()
	return trace, e.Stats().Queue
}

// TestDifferentialQueues is the white-box determinism proof: the exact
// execution trace of a randomized workload must be identical under the
// calendar queue and the reference heap, across several seeds. Both
// scripts end on the calendar; the dense one must also have walked its
// sorted chains, so the mid-chain insert stays under test.
func TestDifferentialQueues(t *testing.T) {
	for _, sc := range []script{sparse, dense} {
		for seed := int64(1); seed <= 5; seed++ {
			heap, _ := traceWorkload(QueueHeap, sc, seed)
			cal, q := traceWorkload(QueueCalendar, sc, seed)
			if q.Kind != "calendar" {
				t.Fatalf("%s seed %d: calendar engine ended on %q", sc.name, seed, q.Kind)
			}
			if sc.name == "dense" && q.WalkMax == 0 {
				t.Fatalf("dense seed %d: no insert walked a chain", seed)
			}
			if len(heap) != len(cal) {
				t.Fatalf("%s seed %d: trace lengths differ: heap %d, calendar %d", sc.name, seed, len(heap), len(cal))
			}
			for i := range heap {
				if heap[i] != cal[i] {
					t.Fatalf("%s seed %d: traces diverge at %d: heap %v, calendar %v",
						sc.name, seed, i, heap[i], cal[i])
				}
			}
			// The trace itself must be (time, schedule-order) sorted.
			for i := 1; i < len(cal); i++ {
				if cal[i].at < cal[i-1].at {
					t.Fatalf("%s seed %d: time went backwards at %d", sc.name, seed, i)
				}
			}
		}
	}
}

// TestSameTimestampFIFO plants many events at one instant, interleaved
// with events scattered inside one calendar slice, and checks the
// same-instant run fires in schedule (seq) order. The scatter crowds its
// slice, so on the calendar those inserts walk the sorted chain while
// the same-instant run is still being appended to its own.
func TestSameTimestampFIFO(t *testing.T) {
	forEachQueue(t, func(t *testing.T, kind QueueKind) {
		e := NewEngineWithQueue(kind)
		rng := rand.New(rand.NewSource(3))
		const at = 30 * time.Microsecond
		var got []int
		for id := 0; id < 100; id++ {
			e.ScheduleCall(at, func(arg any) { got = append(got, arg.(int)) }, id)
			for j := 0; j < 5; j++ {
				e.ScheduleCall(time.Duration(rng.Int63n(int64(calWidth))), func(any) {}, nil)
			}
		}
		e.Run()
		if len(got) != 100 {
			t.Fatalf("fired %d of 100 same-instant events", len(got))
		}
		for i, id := range got {
			if id != i {
				t.Fatalf("same-instant FIFO broken: position %d fired id %d", i, id)
			}
		}
	})
}

// TestCancelRecycleReschedule verifies generation safety under the
// calendar queue: a handle whose record was recycled into a new event
// must stay inert even when that new event sits in a bucket chain.
func TestCancelRecycleReschedule(t *testing.T) {
	forEachQueue(t, func(t *testing.T, kind QueueKind) {
		e := NewEngineWithQueue(kind)
		stale := e.ScheduleCall(time.Microsecond, func(any) {}, nil)
		e.Run() // fires and recycles the record

		fired := 0
		var fresh []Timer
		for i := 0; i < 10; i++ {
			fresh = append(fresh, e.ScheduleCall(time.Duration(i+1)*time.Microsecond,
				func(any) { fired++ }, nil))
		}
		if stale.Cancel() || stale.Active() {
			t.Fatal("stale handle operated on a recycled record")
		}
		if _, ok := stale.When(); ok {
			t.Fatal("stale handle reports a pending time")
		}
		// Cancel-then-reschedule cycles: each Cancel makes the next
		// schedule reuse the record with a bumped generation.
		for i := 0; i < 5; i++ {
			fresh[i].Cancel()
			fresh[i] = e.ScheduleCall(time.Duration(20+i)*time.Microsecond,
				func(any) { fired++ }, nil)
		}
		e.Run()
		if fired != 10 {
			t.Fatalf("fired %d events, want 10 (5 survivors + 5 rescheduled)", fired)
		}
	})
}

// TestOverflowMigration checks the far-timer path end to end: events
// scheduled beyond the calendar window start in the overflow tier, then
// migrate into buckets and fire in exact order as the window slides out
// to them.
func TestOverflowMigration(t *testing.T) {
	e := NewEngineWithQueue(QueueCalendar)
	cq := e.q.(*calQueue)

	var got []time.Duration
	note := func(any) { got = append(got, e.Now()) }
	// Far events first (reverse order, stressing the heap), then near.
	for i := 20; i >= 1; i-- {
		e.ScheduleCall(time.Duration(i)*10*time.Millisecond, note, nil)
	}
	if cq.overflow.len() == 0 {
		t.Fatal("far timers did not land in the overflow tier")
	}
	for i := 0; i < 10; i++ {
		e.ScheduleCall(time.Duration(i)*time.Microsecond, note, nil)
	}
	e.Run()
	if cq.overflow.len() != 0 || cq.count != 0 {
		t.Fatalf("queue not drained: overflow %d, buckets %d", cq.overflow.len(), cq.count)
	}
	if len(got) != 30 {
		t.Fatalf("fired %d of 30", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("out of order at %d: %v after %v", i, got[i], got[i-1])
		}
	}
	if got[len(got)-1] != 200*time.Millisecond {
		t.Fatalf("last event at %v, want 200ms", got[len(got)-1])
	}
}

// TestRunUntilDeadline pins RunUntil's deadline semantics on both
// queues: events at the deadline run, later ones stay pending, the
// clock lands exactly on the deadline, and a later run resumes.
func TestRunUntilDeadline(t *testing.T) {
	forEachQueue(t, func(t *testing.T, kind QueueKind) {
		e := NewEngineWithQueue(kind)
		var fired []time.Duration
		note := func(any) { fired = append(fired, e.Now()) }
		e.ScheduleCall(time.Millisecond, note, nil)
		e.ScheduleCall(2*time.Millisecond, note, nil) // exactly at deadline
		e.ScheduleCall(2*time.Millisecond+1, note, nil)
		e.ScheduleCall(time.Hour, note, nil) // overflow-tier resident

		e.RunUntil(2 * time.Millisecond)
		if len(fired) != 2 {
			t.Fatalf("fired %d events by deadline, want 2", len(fired))
		}
		if e.Now() != 2*time.Millisecond {
			t.Fatalf("clock at %v, want 2ms", e.Now())
		}
		if e.q.len() != 2 {
			t.Fatalf("pending = %d, want 2", e.q.len())
		}
		// An idle stretch: the clock still advances to the deadline.
		e.RunUntil(3 * time.Millisecond)
		if len(fired) != 3 || e.Now() != 3*time.Millisecond {
			t.Fatalf("after second run: fired %d, now %v", len(fired), e.Now())
		}
		e.Run()
		if len(fired) != 4 || e.Now() != time.Hour {
			t.Fatalf("after drain: fired %d, now %v", len(fired), e.Now())
		}
	})
}

// TestCalendarCrowding pins the calendar on both population shapes it
// serves. A population that crowds one slice, with events in both tiers,
// stays on the calendar, walks its sorted chain and still pops in the
// heap's exact order; a dumbbell-sized population with far timers parked
// in overflow migrates them into the window as it slides.
func TestCalendarCrowding(t *testing.T) {
	t.Run("crowded", func(t *testing.T) {
		// check runs before the crowd arrives and again 100 inserts into
		// it.
		run := func(kind QueueKind, check func(e *Engine, crowd int)) []int {
			e := NewEngineWithQueue(kind)
			rng := rand.New(rand.NewSource(11))
			var got []int
			note := func(arg any) { got = append(got, arg.(int)) }
			id := 0
			plant := func(at time.Duration) {
				e.ScheduleCallAt(at, note, id)
				id++
			}
			// Far timers in overflow, a sparse near future in buckets, and
			// a few pops so the window has slid before the crowd arrives.
			for i := 0; i < 20; i++ {
				plant(10*time.Millisecond + time.Duration(i)*time.Millisecond)
				plant(time.Duration(i) * 3 * time.Microsecond)
			}
			for i := 0; i < 5; i++ {
				e.Step()
			}
			// Scatter events inside the slice at 40us.
			for i := 0; i < 200; i++ {
				if check != nil && i%100 == 0 {
					check(e, i)
				}
				plant(40*time.Microsecond + time.Duration(rng.Int63n(int64(calWidth))))
			}
			e.Run()
			return got
		}
		want := run(QueueHeap, nil)
		got := run(QueueCalendar, func(e *Engine, crowd int) {
			cq := e.q.(*calQueue)
			if cq.count == 0 || cq.overflow.len() == 0 {
				t.Fatalf("%d into the crowd: want both tiers occupied, got %d in buckets, %d in overflow",
					crowd, cq.count, cq.overflow.len())
			}
			if crowd > 0 && cq.walkMax == 0 {
				t.Fatal("100 scattered inserts into one slice never walked its chain")
			}
		})
		if len(got) != len(want) {
			t.Fatalf("calendar fired %d events, heap %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("order diverges at %d: calendar id %d, heap id %d", i, got[i], want[i])
			}
		}
	})
	t.Run("sparse", func(t *testing.T) {
		// A closed-loop dumbbell shape: ~64 pending packet-scale events
		// plus per-flow far timers; each fired event schedules its
		// successor a few hundred ns to a few us out.
		e := NewEngineWithQueue(QueueCalendar)
		rng := rand.New(rand.NewSource(5))
		fired := 0
		var hop func(any)
		hop = func(any) {
			if fired++; fired < 20000 {
				e.ScheduleCall(time.Duration(200+rng.Intn(4000)), hop, nil)
			}
		}
		for i := 0; i < 64; i++ {
			e.ScheduleCall(time.Duration(rng.Intn(50000)), hop, nil)
			e.ScheduleCall(time.Duration(i+1)*time.Millisecond, func(any) {}, nil)
		}
		if e.q.(*calQueue).overflow.len() == 0 {
			t.Fatal("far timers did not land in the overflow tier")
		}
		e.Run()
		st := e.Stats()
		if st.Queue.Kind != "calendar" || st.Queue.Buckets != calBuckets || st.Queue.Width != calWidth {
			t.Fatalf("sparse run reports the wrong queue: %+v", st.Queue)
		}
		if st.Queue.Migrations == 0 {
			t.Fatal("far timers never migrated into the window")
		}
	})
}

// TestFreeListAdaptiveBound checks the engine's record pool tracks the
// pending high-water mark instead of the old fixed 1024 cap: after a
// drain, a refill to the same population should reuse records rather
// than allocate fresh ones.
func TestFreeListAdaptiveBound(t *testing.T) {
	e := NewEngine()
	const n = 5000
	for i := 0; i < n; i++ {
		e.ScheduleCall(time.Duration(i)*time.Microsecond, func(any) {}, nil)
	}
	e.Run()
	if len(e.free) <= 1024 {
		t.Fatalf("free list capped at %d records; want the %d high-water mark", len(e.free), n)
	}
	if len(e.free) > n {
		t.Fatalf("free list grew past the high-water mark: %d > %d", len(e.free), n)
	}
}

// TestWhenDistinguishesTimeZero is the Timer.At ambiguity fix: a
// genuine time-0 schedule reports (0, true), a recycled handle
// (0, false).
func TestWhenDistinguishesTimeZero(t *testing.T) {
	e := NewEngine()
	tm := e.ScheduleCall(0, func(any) {}, nil)
	if at, ok := tm.When(); !ok || at != 0 {
		t.Fatalf("When() = %v, %v; want 0, true", at, ok)
	}
	e.Run()
	if at, ok := tm.When(); ok || at != 0 {
		t.Fatalf("after firing: When() = %v, %v; want 0, false", at, ok)
	}
}
