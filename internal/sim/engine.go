// Package sim implements the deterministic discrete-event engine that
// drives the packet-level network simulator.
//
// The engine orders pending events by (time, sequence). The sequence
// number breaks ties in FIFO order so a simulation with the same inputs
// always executes events in the same order, which makes every
// experiment in this repository reproducible bit-for-bit. Two
// schedulers implement that contract behind the eventQueue interface: a
// fixed-geometry calendar queue (the default — O(1) insert/pop while the
// near future is sparse, with an overflow heap tier for far-future
// timers) and a 4-ary heap (O(log n)). A calendar engine whose near
// future crowds one slice hands its events to that heap and serves from
// it for the rest of the run; NewEngineWithQueue selects the heap from
// the start, the reference for differential determinism tests.
//
// Every event record holds one callback form: a func(any) and its arg.
// ScheduleCall/ScheduleCallAt set both directly; the callback is shared
// across calls (typically a package-level function or a field bound
// once at construction) and the per-call state travels in the arg word,
// so steady-state scheduling performs zero allocations.
// Schedule/ScheduleAt take a plain func() and store it as the arg of
// one shared trampoline, runFunc — a func value stores into an any
// without allocating, but a call site that captures state still
// allocates its closure, and the returned *Timer escapes.
package sim

import (
	"time"
)

// eventQueue is the engine's pluggable pending-event store. Pop and
// peek must return the exact (at, seq) minimum — the total order every
// implementation is required to reproduce byte-identically.
type eventQueue interface {
	push(ev *event)
	pop() *event  // remove and return the minimum; nil when empty
	peek() *event // the minimum without removing it; nil when empty
	len() int
}

// QueueKind selects the scheduler an engine starts on.
type QueueKind int

const (
	// QueueCalendar is the default: a fixed-geometry calendar queue with
	// a heap overflow tier for far timers, which hands off to that heap
	// for good once a chain insert finds its slice crowded.
	QueueCalendar QueueKind = iota
	// QueueHeap is the 4-ary min-heap from the first event: O(log n)
	// insert/pop. The reference implementation for differential
	// determinism tests.
	QueueHeap
)

// Engine is a single-threaded discrete-event scheduler. The zero value
// is not usable; construct with NewEngine.
type Engine struct {
	now time.Duration
	q   eventQueue
	seq uint64
	// processed counts executed events, useful for progress reporting
	// and benchmarks.
	processed uint64
	// free recycles event records: packet-level simulations schedule
	// millions of events, and reusing the records removes the dominant
	// allocation from the hot loop. Generation tags keep stale Timer
	// handles inert after reuse. The list is bounded by the high-water
	// mark of pending events (floor 1024), so a large fabric's record
	// population survives drain/refill cycles without re-allocating.
	free    []*event
	hiwater int
	// mon is the live progress slot when a Monitor is attached (serial
	// engines via SetMonitor, degenerate coordinator runs directly); nil
	// — one pointer test in Step — when disabled. monOwner holds the
	// attached Monitor so RunUntil can publish its deadline; monCount
	// counts down to the next periodic publication.
	mon      *MonitorShard
	monOwner *Monitor
	monCount int
	// cal is the calendar the engine started on (nil for QueueHeap);
	// after a handoff q is its overflow heap.
	cal *calQueue
}

// NewEngine returns an engine with virtual time zero and no events,
// scheduled by the calendar queue.
func NewEngine() *Engine {
	return NewEngineWithQueue(QueueCalendar)
}

// NewEngineWithQueue returns an engine starting on the given scheduler
// implementation. Both kinds execute identical workloads in identical
// order; QueueHeap exists for differential tests and A/B benchmarks.
func NewEngineWithQueue(kind QueueKind) *Engine {
	e := &Engine{}
	if kind == QueueHeap {
		e.q = &heapQueue{}
	} else {
		e.cal = newCalQueue(&e.q)
	}
	return e
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Timer is a handle to a scheduled event that can be cancelled or
// rescheduled. A cancelled timer's callback never runs. Handles stay
// valid (but inert) after their event fires, even though the engine
// recycles event records internally. The zero Timer is valid and inert,
// so it can be stored by value and cancelled unconditionally.
type Timer struct {
	ev  *event
	gen uint64
}

// live reports whether the handle still refers to its original event.
func (t *Timer) live() bool {
	return t != nil && t.ev != nil && t.ev.gen == t.gen
}

// Cancel prevents the timer's callback from running. Cancelling an
// already-fired or already-cancelled timer is a no-op. It reports
// whether the callback was still pending.
func (t *Timer) Cancel() bool {
	if !t.live() || t.ev.cancelled || t.ev.fired {
		return false
	}
	t.ev.cancelled = true
	return true
}

// Active reports whether the timer's callback is still pending.
func (t *Timer) Active() bool {
	return t.live() && !t.ev.cancelled && !t.ev.fired
}

// When returns the virtual time the timer is scheduled to fire and
// whether the handle still refers to a pending event. It distinguishes
// a real time-0 schedule (0, true) from a fired, cancelled, or recycled
// handle (0, false).
func (t *Timer) When() (time.Duration, bool) {
	if !t.Active() {
		return 0, false
	}
	return t.ev.at, true
}

// Schedule runs fn after delay. A negative delay is treated as zero
// (the event runs at the current time, after already-queued events for
// that time). It returns a Timer handle that can cancel the event.
func (e *Engine) Schedule(delay time.Duration, fn func()) *Timer {
	if delay < 0 {
		delay = 0
	}
	return e.ScheduleAt(e.now+delay, fn)
}

// ScheduleAt runs fn at absolute virtual time at. Times in the past are
// clamped to the current time.
func (e *Engine) ScheduleAt(at time.Duration, fn func()) *Timer {
	t := e.ScheduleCallAt(at, runFunc, fn)
	return &t
}

// runFunc is the trampoline behind Schedule/ScheduleAt: the func()
// rides in the event arg.
func runFunc(arg any) { arg.(func())() }

// ScheduleCall runs fn(arg) after delay. It is the allocation-free
// counterpart of Schedule: fn must not be a per-call closure (use a
// package-level function or one bound once at construction) and the
// per-call state travels in arg. The Timer is returned by value so
// nothing escapes to the heap; the zero Timer a caller might hold
// before the first ScheduleCall is inert.
func (e *Engine) ScheduleCall(delay time.Duration, fn func(any), arg any) Timer {
	if delay < 0 {
		delay = 0
	}
	return e.ScheduleCallAt(e.now+delay, fn, arg)
}

// ScheduleCallAt runs fn(arg) at absolute virtual time at. Times in the
// past are clamped to the current time.
func (e *Engine) ScheduleCallAt(at time.Duration, fn func(any), arg any) Timer {
	ev := e.insert(at)
	ev.callFn, ev.arg = fn, arg
	return Timer{ev: ev, gen: ev.gen}
}

// insert takes an event record from the free list (or allocates one),
// stamps it with the clamped time and next sequence number, and pushes
// it onto the queue. The caller fills in the callback.
func (e *Engine) insert(at time.Duration) *event {
	if at < e.now {
		at = e.now
	}
	ev := e.newEvent()
	ev.at = at
	ev.schedAt = e.now
	ev.lane = 0
	ev.seq = e.seq
	e.seq++
	e.push(ev)
	return ev
}

// newEvent takes a blank record from the free list (or allocates one).
func (e *Engine) newEvent() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		ev.cancelled, ev.fired = false, false
		return ev
	}
	return &event{}
}

func (e *Engine) push(ev *event) {
	e.q.push(ev)
	if n := e.q.len(); n > e.hiwater {
		e.hiwater = n
	}
}

// injectRemote enqueues an event scheduled by another shard's engine.
// The caller supplies the full sort key: the arrival time, the sending
// engine's clock at send time (schedAt), a nonzero lane identifying the
// sending shard, and that shard's monotone cross-send sequence number.
// The local seq counter is not consumed, so injections leave the order
// of local events untouched. Only the shard coordinator may call this,
// and only between the shard's runBefore windows, so the engine is
// never executing concurrently.
func (e *Engine) injectRemote(at, schedAt time.Duration, lane uint32, seq uint64,
	fn func(any), arg any) {
	if at < e.now {
		// The conservative window protocol guarantees arrivals land at or
		// beyond the receiving shard's clock; clamp defensively anyway so
		// a misuse degrades like a late local schedule instead of
		// corrupting the queue's monotonicity.
		at = e.now
	}
	ev := e.newEvent()
	ev.at = at
	ev.schedAt = schedAt
	ev.lane = lane
	ev.seq = seq
	ev.callFn, ev.arg = fn, arg
	e.push(ev)
}

// recycle returns an executed or cancelled event record to the pool,
// bumping its generation so outstanding Timer handles go inert. The
// callback and arg are cleared so recycled records don't pin dead
// closures or packets. The pool is bounded by the engine's pending
// high-water mark so it adapts to the fabric's real event population.
func (e *Engine) recycle(ev *event) {
	ev.gen++
	ev.callFn = nil
	ev.arg = nil
	cap := e.hiwater
	if cap < 1024 {
		cap = 1024
	}
	if len(e.free) < cap {
		e.free = append(e.free, ev)
	}
}

// Step executes the single earliest pending event. It reports whether
// an event was executed.
func (e *Engine) Step() bool {
	for {
		ev := e.q.pop()
		if ev == nil {
			return false
		}
		if ev.cancelled {
			e.recycle(ev)
			continue
		}
		e.now = ev.at
		ev.fired = true
		e.processed++
		if e.mon != nil {
			if e.monCount--; e.monCount <= 0 {
				e.monCount = monPublishEvery
				e.mon.publish(e.processed, e.now)
			}
		}
		fn, arg := ev.callFn, ev.arg
		e.recycle(ev)
		fn(arg)
		return true
	}
}

// Run executes events until none remain.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with timestamps <= deadline. On return the
// clock is at deadline — even when the event queue drained before
// reaching it — so a caller that measures "rate over the run" always
// divides by the full window.
func (e *Engine) RunUntil(deadline time.Duration) {
	if e.monOwner != nil {
		e.monOwner.deadline.Store(int64(deadline))
	}
	for {
		ev := e.peek()
		if ev == nil || ev.at > deadline {
			break
		}
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
	if e.mon != nil {
		e.mon.publish(e.processed, e.now)
	}
}

// runBefore executes every event with at < limit (strictly), leaving
// the clock at the last executed event. It returns the time of the
// earliest remaining event, with ok=false when the queue drained. The
// shard coordinator uses the exclusive bound to run one conservative
// window [T, grant): events exactly at the window end belong to the
// next window, after the coordinator has injected any cross-shard
// arrivals that could tie with them.
func (e *Engine) runBefore(limit time.Duration) (next time.Duration, ok bool) {
	for {
		ev := e.peek()
		if ev == nil {
			return 0, false
		}
		if ev.at >= limit {
			return ev.at, true
		}
		e.Step()
	}
}

// advanceTo moves the clock forward to t if it lags behind (the sharded
// counterpart of RunUntil's advance-to-deadline-on-drain semantics).
func (e *Engine) advanceTo(t time.Duration) {
	if e.now < t {
		e.now = t
	}
}

// peek returns the earliest live event, lazily reaping cancelled ones.
func (e *Engine) peek() *event {
	for {
		ev := e.q.peek()
		if ev == nil {
			return nil
		}
		if ev.cancelled {
			e.recycle(e.q.pop())
			continue
		}
		return ev
	}
}

// ticker runs a callback at a fixed virtual-time interval for the rest
// of the run (DCQCN's alpha and rate-recovery timers).
type ticker struct {
	eng      *Engine
	interval time.Duration
	fn       func()
}

// Every schedules fn to run every interval, starting one interval from
// now, for the rest of the run. A non-positive interval schedules
// nothing.
func (e *Engine) Every(interval time.Duration, fn func()) {
	if interval <= 0 {
		return
	}
	t := &ticker{eng: e, interval: interval, fn: fn}
	t.schedule()
}

// tickerFire is the shared tick trampoline: ticks carry their ticker in
// the event arg, so a ticker schedules forever without allocating.
func tickerFire(arg any) {
	t := arg.(*ticker)
	t.fn()
	t.schedule()
}

func (t *ticker) schedule() {
	t.eng.ScheduleCall(t.interval, tickerFire, t)
}

// event is a pending-event record: callFn runs with arg. next chains
// events inside a calendar-queue bucket; it is nil whenever the event
// is not resident in a bucket.
// event records are pooled and compared in the queue hot paths, so the
// layout matters: every field the sort key reads (at, schedAt, lane,
// seq) plus the chain pointer sits in the first 64 bytes, and arg, which
// only dispatch reads, ends past them — a comparison or chain walk
// touches exactly one cache line per record.
type event struct {
	at time.Duration
	// schedAt is the virtual time the event was scheduled at (the
	// engine's clock when insert ran, or the sending shard's clock for a
	// cross-shard injection). It participates in the sort key so a
	// sharded run can reproduce the serial engine's tie-break exactly:
	// locally, seq order already implies schedAt order (the clock never
	// runs backwards), so adding it changes nothing — but it lets an
	// injected remote event slot into the same position it would have
	// held in a single serial queue.
	schedAt time.Duration
	seq     uint64
	gen     uint64
	next    *event
	callFn  func(any)
	// lane identifies the event's scheduling domain: 0 for local
	// schedules, 1+shardID for events injected from another shard. seq
	// values are only comparable within one lane; the lane field keeps
	// the order total across them.
	lane      uint32
	cancelled bool
	fired     bool
	arg       any
}

// eventLess orders events by (time, schedule time, lane, sequence): a
// strict total order, so the pop sequence — and therefore every
// simulation — is independent of the queue's internal layout.
//
// For a purely local (serial) run this is exactly the historical
// (time, sequence) order: every lane is 0, and for two events with
// equal at, seq_a < seq_b implies schedAt_a <= schedAt_b because seq is
// assigned in scheduling order and the clock is nondecreasing — so the
// (schedAt, lane, seq) suffix ranks by seq alone. The extra fields only
// discriminate when a shard coordinator injects events scheduled by
// another engine (see parallel.go).
func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.schedAt != b.schedAt {
		return a.schedAt < b.schedAt
	}
	if a.lane != b.lane {
		return a.lane < b.lane
	}
	return a.seq < b.seq
}
