package sim

import (
	"math/rand"
	"testing"
	"time"
)

// ScheduleCall and Schedule must interleave in strict (time, insertion)
// order: the arg-carrying form is a different calling convention, not a
// different scheduling discipline.
func TestScheduleCallOrderingVsSchedule(t *testing.T) {
	e := NewEngine()
	var got []int
	record := func(arg any) { got = append(got, arg.(int)) }
	e.ScheduleCall(20*time.Nanosecond, record, 4)
	e.Schedule(10*time.Nanosecond, func() { got = append(got, 1) })
	e.ScheduleCall(10*time.Nanosecond, record, 2) // same time, inserted after 1
	e.Schedule(10*time.Nanosecond, func() { got = append(got, 3) })
	e.ScheduleCall(30*time.Nanosecond, record, 5)
	e.Run()
	want := []int{1, 2, 3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

// The two forms must produce identical execution traces run-to-run,
// including when event records are recycled between rounds.
func TestScheduleCallDeterminism(t *testing.T) {
	runOnce := func() []int {
		e := NewEngine()
		var got []int
		record := func(arg any) { got = append(got, arg.(int)) }
		for round := 0; round < 4; round++ {
			for i := 0; i < 40; i++ {
				v := round*1000 + i
				if i%2 == 0 {
					e.ScheduleCall(time.Duration(i%5)*time.Microsecond, record, v)
				} else {
					e.Schedule(time.Duration(i%5)*time.Microsecond, func() { got = append(got, v) })
				}
			}
			e.Run()
		}
		return got
	}
	a, b := runOnce(), runOnce()
	if len(a) != 160 || len(b) != 160 {
		t.Fatalf("lengths %d/%d, want 160", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("determinism broke at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestScheduleCallTimerCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	timer := e.ScheduleCall(time.Second, func(any) { fired = true }, nil)
	if !timer.Active() {
		t.Fatal("timer should be active")
	}
	if at, ok := timer.When(); !ok || at != time.Second {
		t.Fatalf("When() = %v, %v, want 1s, true", at, ok)
	}
	if !timer.Cancel() {
		t.Fatal("Cancel should report true")
	}
	e.Run()
	if fired {
		t.Fatal("cancelled ScheduleCall fired")
	}
}

// The zero Timer (held by value before any ScheduleCall) must be inert.
func TestZeroTimerInert(t *testing.T) {
	var timer Timer
	if timer.Active() || timer.Cancel() {
		t.Fatal("zero Timer must be inert")
	}
	if _, ok := timer.When(); ok {
		t.Fatal("zero Timer must report no pending time")
	}
}

// Heap property under churn: schedule events at pseudo-random times,
// cancel a third of them, re-schedule from inside callbacks (forcing
// record recycling mid-run), and verify the fire sequence is sorted by
// (time, insertion order).
func TestHeapChurnOrdering(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	e := NewEngine()
	type firing struct {
		at  time.Duration
		seq int
	}
	var fired []firing
	seq := 0
	var add func(depth int)
	add = func(depth int) {
		at := time.Duration(r.Intn(500)) * time.Microsecond
		s := seq
		seq++
		timer := e.ScheduleCall(at, func(any) {
			fired = append(fired, firing{e.Now(), s})
			if depth > 0 && r.Intn(2) == 0 {
				add(depth - 1) // recycle churn: schedule from a callback
			}
		}, nil)
		if r.Intn(3) == 0 {
			timer.Cancel()
		}
	}
	for i := 0; i < 500; i++ {
		add(2)
	}
	e.Run()
	if len(fired) == 0 {
		t.Fatal("nothing fired")
	}
	for i := 1; i < len(fired); i++ {
		if fired[i].at < fired[i-1].at {
			t.Fatalf("fire %d at %v before %v: heap order violated", i, fired[i].at, fired[i-1].at)
		}
		// Same-time events created outside callbacks fire in insertion
		// order (events spawned mid-run get later engine sequence numbers
		// by construction, so monotone seq implies FIFO tie-breaking).
		if fired[i].at == fired[i-1].at && fired[i].seq == fired[i-1].seq {
			t.Fatalf("fire %d duplicated seq %d", i, fired[i].seq)
		}
	}
	if e.q.len() != 0 {
		t.Fatalf("Pending() = %d after Run, want 0", e.q.len())
	}
}

// Cancelled-and-recycled records must not corrupt the heap: interleave
// cancels with pops and verify the survivor set is exactly right.
func TestHeapCancelRecycleExactness(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		e := NewEngine()
		n := 200
		timers := make([]Timer, n)
		firedBy := make([]bool, n)
		for i := 0; i < n; i++ {
			i := i
			timers[i] = e.ScheduleCall(time.Duration(r.Intn(50))*time.Microsecond,
				func(any) { firedBy[i] = true }, nil)
		}
		cancelled := make([]bool, n)
		for i := 0; i < n; i++ {
			if r.Intn(3) == 0 {
				timers[i].Cancel()
				cancelled[i] = true
			}
		}
		e.Run()
		for i := 0; i < n; i++ {
			if firedBy[i] == cancelled[i] {
				t.Fatalf("trial %d event %d: fired=%v cancelled=%v", trial, i, firedBy[i], cancelled[i])
			}
		}
	}
}

// The engine's scheduling hot path must be allocation-free at steady
// state: event records come from the free list, the overflow heap's
// slice is warm, and the value Timer never escapes. This is the
// regression guard for the zero-allocation property the simulator's
// throughput depends on.
func TestScheduleCallZeroAlloc(t *testing.T) {
	e := NewEngine()
	nop := func(any) {}
	// Warm up: grow the heap slice and the free list.
	for i := 0; i < 256; i++ {
		e.ScheduleCall(time.Duration(i)*time.Nanosecond, nop, nil)
	}
	e.Run()
	avg := testing.AllocsPerRun(1000, func() {
		e.ScheduleCall(time.Nanosecond, nop, e)
		e.Step()
	})
	if avg != 0 {
		t.Fatalf("ScheduleCall+Step allocates %.2f/op at steady state, want 0", avg)
	}
	// The bitmap path: one event a few microseconds out, across hundreds
	// of empty slices, and one beyond the window, so the second Step
	// drains the buckets and re-anchors on the overflow tier.
	avg = testing.AllocsPerRun(1000, func() {
		e.ScheduleCall(3*time.Microsecond, nop, e)
		e.ScheduleCall(time.Millisecond, nop, e)
		e.Step()
		e.Step()
	})
	if avg != 0 {
		t.Fatalf("gap-crossing and overflow drain allocate %.2f/op, want 0", avg)
	}
	if m := e.Stats().Queue.Migrations; m < 1000 {
		t.Fatalf("%d overflow migrations, want one per iteration", m)
	}
}
