package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(30*time.Nanosecond, func() { got = append(got, 3) })
	e.Schedule(10*time.Nanosecond, func() { got = append(got, 1) })
	e.Schedule(20*time.Nanosecond, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30*time.Nanosecond {
		t.Fatalf("Now() = %v, want 30ns", e.Now())
	}
}

func TestTieBreakFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.Schedule(time.Microsecond, func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events out of FIFO order at %d: %v", i, got[i])
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 10 {
			e.Schedule(time.Millisecond, tick)
		}
	}
	e.Schedule(0, tick)
	e.Run()
	if count != 10 {
		t.Fatalf("count = %d, want 10", count)
	}
	if e.Now() != 9*time.Millisecond {
		t.Fatalf("Now() = %v, want 9ms", e.Now())
	}
}

func TestTimerCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	timer := e.Schedule(time.Second, func() { fired = true })
	if !timer.Active() {
		t.Fatal("timer should be active before firing")
	}
	if !timer.Cancel() {
		t.Fatal("first Cancel should report true")
	}
	if timer.Cancel() {
		t.Fatal("second Cancel should report false")
	}
	e.Run()
	if fired {
		t.Fatal("cancelled timer fired")
	}
}

func TestTimerCancelAfterFire(t *testing.T) {
	e := NewEngine()
	timer := e.Schedule(time.Second, func() {})
	e.Run()
	if timer.Active() {
		t.Fatal("fired timer should not be active")
	}
	if timer.Cancel() {
		t.Fatal("Cancel after fire should report false")
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []time.Duration
	for _, d := range []time.Duration{time.Second, 2 * time.Second, 3 * time.Second} {
		d := d
		e.Schedule(d, func() { fired = append(fired, d) })
	}
	e.RunUntil(2 * time.Second)
	if len(fired) != 2 {
		t.Fatalf("fired %d events, want 2", len(fired))
	}
	if e.Now() != 2*time.Second {
		t.Fatalf("Now() = %v, want 2s", e.Now())
	}
	e.RunUntil(10 * time.Second)
	if len(fired) != 3 {
		t.Fatalf("fired %d events, want 3", len(fired))
	}
	if e.Now() != 10*time.Second {
		t.Fatalf("Now() = %v, want 10s (clock advances to deadline)", e.Now())
	}
}

// The queue draining before the deadline must not leave the clock at
// the last event: every RunUntil caller that divides by the run window
// (throughput, mark fractions) relies on Now() == deadline afterwards.
func TestRunUntilDrainAdvancesToDeadline(t *testing.T) {
	e := NewEngine()
	e.Schedule(time.Millisecond, func() {})
	e.RunUntil(time.Second)
	if e.Now() != time.Second {
		t.Fatalf("Now() after drain = %v, want 1s", e.Now())
	}

	// An empty queue is the degenerate drain: the clock still lands on
	// the deadline.
	e.RunUntil(2 * time.Second)
	if e.Now() != 2*time.Second {
		t.Fatalf("Now() with no events = %v, want 2s", e.Now())
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	e := NewEngine()
	e.Schedule(time.Second, func() {
		e.Schedule(-time.Hour, func() {
			if e.Now() != time.Second {
				t.Fatalf("clamped event ran at %v, want 1s", e.Now())
			}
		})
	})
	e.Run()
}

func TestScheduleAtPastClamped(t *testing.T) {
	e := NewEngine()
	e.Schedule(time.Second, func() {
		e.ScheduleAt(0, func() {
			if e.Now() != time.Second {
				t.Fatalf("past event ran at %v, want 1s", e.Now())
			}
		})
	})
	e.Run()
}

func TestProcessedCount(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 7; i++ {
		e.Schedule(time.Duration(i), func() {})
	}
	e.Run()
	if e.Processed() != 7 {
		t.Fatalf("Processed() = %d, want 7", e.Processed())
	}
}

// Property: events always execute in nondecreasing time order, no matter
// the insertion order.
func TestPropertyMonotonicExecution(t *testing.T) {
	f := func(delays []uint32) bool {
		e := NewEngine()
		var times []time.Duration
		for _, d := range delays {
			d := time.Duration(d)
			e.Schedule(d, func() { times = append(times, e.Now()) })
		}
		e.Run()
		return sort.SliceIsSorted(times, func(i, j int) bool { return times[i] < times[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the engine executes exactly the non-cancelled events.
func TestPropertyCancellationExact(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		e := NewEngine()
		timers := make([]*Timer, n)
		fired := make([]bool, n)
		for i := range timers {
			i := i
			timers[i] = e.Schedule(time.Duration(r.Intn(1000)), func() { fired[i] = true })
		}
		cancelled := make([]bool, n)
		for i := range timers {
			if r.Intn(2) == 0 {
				timers[i].Cancel()
				cancelled[i] = true
			}
		}
		e.Run()
		for i := range fired {
			if fired[i] == cancelled[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for j := 0; j < 1000; j++ {
			e.Schedule(time.Duration(j%97)*time.Nanosecond, func() {})
		}
		e.Run()
	}
}

func BenchmarkNestedEventChain(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	n := 0
	var tick func()
	tick = func() {
		if n < b.N {
			n++
			e.Schedule(time.Nanosecond, tick)
		}
	}
	e.Schedule(0, tick)
	e.Run()
}

func TestTicker(t *testing.T) {
	e := NewEngine()
	count := 0
	e.Every(time.Millisecond, func() { count++ })
	e.RunUntil(time.Second)
	if count != 1000 {
		t.Fatalf("ticks = %d, want 1000", count)
	}
	if e.Now() != time.Second {
		t.Fatalf("Now = %v", e.Now())
	}
}

func TestTickerNonPositiveInterval(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Every(0, func() { fired = true })
	e.RunUntil(time.Second)
	if fired {
		t.Fatal("zero-interval ticker must not fire")
	}
}

func TestTickerCadence(t *testing.T) {
	e := NewEngine()
	var times []time.Duration
	e.Every(250*time.Microsecond, func() { times = append(times, e.Now()) })
	e.RunUntil(time.Millisecond)
	want := []time.Duration{250 * time.Microsecond, 500 * time.Microsecond, 750 * time.Microsecond, time.Millisecond}
	if len(times) != len(want) {
		t.Fatalf("ticks at %v, want %v", times, want)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("tick %d at %v, want %v", i, times[i], want[i])
		}
	}
}

func TestTimerHandleInertAfterRecycle(t *testing.T) {
	e := NewEngine()
	t1 := e.Schedule(time.Millisecond, func() {})
	e.Run()
	// t1's event record is recycled; a new event may reuse it.
	fired := false
	t2 := e.Schedule(time.Millisecond, func() { fired = true })
	// Operating on the stale handle must not disturb the new event.
	if _, pending := t1.When(); t1.Active() || t1.Cancel() || pending {
		t.Fatal("stale handle must be inert")
	}
	e.Run()
	if !fired {
		t.Fatal("stale handle cancelled a recycled event")
	}
	if t2.Active() {
		t.Fatal("fired timer still active")
	}
}

func TestRecycleKeepsDeterminism(t *testing.T) {
	runOnce := func() []int {
		e := NewEngine()
		var got []int
		for round := 0; round < 5; round++ {
			round := round
			for i := 0; i < 50; i++ {
				i := i
				e.Schedule(time.Duration(i%7)*time.Microsecond, func() {
					got = append(got, round*100+i)
				})
			}
			e.Run()
		}
		return got
	}
	a, b := runOnce(), runOnce()
	if len(a) != len(b) || len(a) != 250 {
		t.Fatalf("lengths %d/%d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("recycling broke determinism at %d", i)
		}
	}
}
