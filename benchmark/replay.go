package main

import (
	"time"

	"pmsb/internal/sim"
)

// Isolated replay of a recorded dequeue window on a bare engine with
// no-op handlers: the event queue's cost on this workload's real
// (schedule time, fire time) stream, with none of the port, scheduler,
// marker or transport work around it.
//
// Each recorded dequeue caused exactly two events in the real run: the
// serialization-done event, scheduled at the dequeue instant for
// now+ser, and the link arrival, scheduled from there for +delay. The
// replay schedules those two and, from the benchmark's own inputs, the
// flow-start events plus one MinRTO-horizon timer per flow, so the
// far-timer population that shapes the calendar's bucket width is
// present. Pacing, delayed-ACK and re-armed RTO timers are not replayed;
// replay coverage (replayed events / real events) says how much of the
// run the replay stands for.

// minRTO is transport.Config's default retransmission-timer floor.
const minRTO = 2 * time.Millisecond

// replayResult is one replay's account.
type replayResult struct {
	// scheduled and popped count events; they must be equal.
	scheduled, popped uint64
	// monotone is false if the engine ever fired an event before an
	// earlier one's time.
	monotone bool
	wall     time.Duration
}

// replayer drives one bare engine; its callbacks are bound once.
type replayer struct {
	eng    *sim.Engine
	recs   []dequeueRec
	last   time.Duration
	res    replayResult
	txDone func(any)
	nop    func(any)
	start  func(any)
}

func (r *replayer) fired() {
	now := r.eng.Now()
	if now < r.last {
		r.res.monotone = false
	}
	r.last = now
	r.res.popped++
}

// replayWindow replays w on a fresh engine of the given queue kind.
func replayWindow(w *window, kind sim.QueueKind) replayResult {
	r := &replayer{eng: sim.NewEngineWithQueue(kind), recs: w.recs}
	r.res.monotone = true
	r.nop = func(any) { r.fired() }
	r.txDone = func(arg any) {
		r.fired()
		r.eng.ScheduleCall(time.Duration(arg.(*dequeueRec).delay), r.nop, nil)
		r.res.scheduled++
	}
	r.start = func(any) {
		r.fired()
		r.eng.ScheduleCall(minRTO, r.nop, nil)
		r.res.scheduled++
	}

	t0 := time.Now()
	// A full window stopped recording mid-run: flows that started after
	// its last dequeue belong to the part of the run it does not cover.
	end := time.Duration(1<<63 - 1)
	if n := len(r.recs); n > 0 && n == cap(r.recs) {
		end = time.Duration(r.recs[n-1].now)
	}
	for _, at := range w.starts {
		if at > end {
			continue
		}
		r.eng.ScheduleCallAt(at, r.start, nil)
		r.res.scheduled++
	}
	for i := range r.recs {
		// Advance to the dequeue instant so the insert below is made
		// from the same clock the real port made it from. The record
		// rides in the event arg by pointer, so scheduling allocates
		// nothing, as in the real hot path.
		rec := &r.recs[i]
		r.eng.RunUntil(time.Duration(rec.now))
		r.eng.ScheduleCallAt(time.Duration(rec.now+int64(rec.ser)), r.txDone, rec)
		r.res.scheduled++
	}
	r.eng.Run()
	r.res.wall = time.Since(t0)
	return r.res
}

// replayStats is the replay of every shard's window.
type replayStats struct {
	// calNs and heapNs are ns per replayed event on each queue kind.
	calNs, heapNs float64
	// floorNs is the same replay loop over a stream that never holds
	// more than three pending events: what the engine and the loop cost
	// when the queue has nothing to do. calNs - floorNs is the queue's
	// own cost on this workload's stream.
	floorNs float64
	events  uint64
	// ok is false if any replay lost, invented or reordered an event.
	ok bool
}

// floorWindow is a dequeue stream with nothing to sort: back-to-back
// MTU transmissions on one 10 Gbps port with a one-nanosecond link.
func floorWindow(n int) *window {
	const ser = 1200 // ns per MTU at 10 Gbps
	w := &window{recs: make([]dequeueRec, n)}
	for i := range w.recs {
		w.recs[i] = dequeueRec{now: int64(i) * ser, ser: ser, delay: 1}
	}
	return w
}

// replayAll replays every shard's window on both queue kinds.
func replayAll(windows []*window) replayStats {
	st := replayStats{ok: true}
	var calWall, heapWall time.Duration
	for _, w := range windows {
		cal := replayWindow(w, sim.QueueCalendar)
		heap := replayWindow(w, sim.QueueHeap)
		calWall += cal.wall
		heapWall += heap.wall
		st.events += cal.popped
		st.ok = st.ok && cal.monotone && heap.monotone &&
			cal.popped == cal.scheduled && heap.popped == heap.scheduled && cal.popped == heap.popped
	}
	if st.events == 0 {
		return st
	}
	st.calNs = float64(calWall) / float64(st.events)
	st.heapNs = float64(heapWall) / float64(st.events)
	floor := replayWindow(floorWindow(1<<17), sim.QueueCalendar)
	st.floorNs = float64(floor.wall) / float64(floor.popped)
	return st
}
