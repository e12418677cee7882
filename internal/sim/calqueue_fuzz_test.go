package sim

import (
	"testing"
	"time"
)

// fuzzOp is one step of a FuzzCalendarMatchesHeap schedule, three bytes
// on the wire: an opcode, a delay class and a delay magnitude.
type fuzzOp struct{ code, class, mag byte }

const (
	opLocal  = iota // ScheduleCallAt(now+delay)
	opInject        // injectRemote(now+delay) from another shard's lane
	opCancel        // cancel an earlier local timer (mag picks which)
	opStep          // Step
	opBefore        // runBefore(now+delay): the coordinator's window
	opUntil         // RunUntil(now+delay)
	opPeek          // peek, the probe RunUntil and runBefore make
	opCount
)

// delay maps a class and magnitude to a virtual-time offset: the same
// instant, a few slices, across the window, or well beyond it.
func (o fuzzOp) delay() time.Duration {
	switch o.class % 4 {
	case 0:
		return 0
	case 1:
		return time.Duration(o.mag)
	case 2:
		return time.Duration(o.mag) * 300 * time.Nanosecond
	default:
		return time.Duration(o.mag+1) * 100 * time.Microsecond
	}
}

func encodeOps(ops ...fuzzOp) []byte {
	b := make([]byte, 0, 3*len(ops))
	for _, o := range ops {
		b = append(b, o.code, o.class, o.mag)
	}
	return b
}

// fuzzRun drives one engine through the schedule and returns what it
// observed: fired event ids in order, with each peek's (time, id) and
// each runBefore result interleaved as negative markers.
func fuzzRun(kind QueueKind, ops []fuzzOp) []int64 {
	e := NewEngineWithQueue(kind)
	var out []int64
	var timers []Timer
	id := 0
	var fire func(arg any)
	fire = func(arg any) {
		n := arg.(int)
		out = append(out, int64(n))
		if n%5 == 0 { // nested scheduling from inside a callback
			e.ScheduleCall(time.Duration(n%7)*100*time.Nanosecond, fire, id)
			id++
		}
	}
	var laneSeq [3]uint64
	for _, o := range ops {
		at := e.Now() + o.delay()
		switch o.code % opCount {
		case opLocal:
			timers = append(timers, e.ScheduleCallAt(at, fire, id))
			id++
		case opInject:
			// The sender's clock trails the receiver's by up to a few
			// slices; the lane's sequence only grows.
			lane := uint32(o.mag%3) + 1
			schedAt := e.Now() - time.Duration(o.mag%4)*calWidth
			if schedAt < 0 {
				schedAt = 0
			}
			laneSeq[lane-1]++
			e.injectRemote(at, schedAt, lane, laneSeq[lane-1], fire, id)
			id++
		case opCancel:
			if len(timers) > 0 {
				timers[int(o.mag)%len(timers)].Cancel()
			}
		case opStep:
			e.Step()
		case opBefore:
			next, ok := e.runBefore(at)
			if !ok {
				next = -1
			}
			out = append(out, -1, int64(next))
		case opUntil:
			e.RunUntil(at)
		case opPeek:
			if ev := e.peek(); ev != nil {
				out = append(out, -2, int64(ev.at), int64(ev.arg.(int)))
			} else {
				out = append(out, -3)
			}
		}
	}
	e.Run()
	return append(out, -4, int64(e.Now()))
}

// FuzzCalendarMatchesHeap holds the calendar to the heap's exact pop
// order on arbitrary schedules: same-instant runs, events across and
// beyond the window, cancels, cross-shard injections, and peeks
// interleaved with pushes. A cancelled event reaped by a peek or a step
// leaves the calendar's cursor ahead of the clock, so later inserts
// land behind it and take the rewind path in push.
func FuzzCalendarMatchesHeap(f *testing.F) {
	// Reap a cancelled bucket event, then insert behind the cursor: the
	// rewind evicts the event left at the old window's end.
	f.Add(encodeOps(
		fuzzOp{opLocal, 2, 33},  // A at ~10us
		fuzzOp{opLocal, 2, 233}, // B at ~70us, inside A's window
		fuzzOp{opLocal, 2, 100}, // C at 30us, stays in the window
		fuzzOp{opCancel, 0, 0},  // cancel A
		fuzzOp{opBefore, 2, 50}, // peek reaps A, stops before B
		fuzzOp{opLocal, 1, 20},  // behind the cursor
		fuzzOp{opInject, 1, 40}, // behind the cursor, from lane 2
		fuzzOp{opPeek, 0, 0},
	))
	// Drain to the overflow tier through a cancelled far timer, then
	// inject behind the cursor the jump left.
	f.Add(encodeOps(
		fuzzOp{opLocal, 3, 4},
		fuzzOp{opCancel, 0, 0},
		fuzzOp{opLocal, 3, 9},
		fuzzOp{opStep, 0, 0},
		fuzzOp{opInject, 2, 7},
		fuzzOp{opPeek, 0, 0},
		fuzzOp{opUntil, 3, 1},
	))
	// A cancelled far timer is the only event: the step that reaps it
	// leaves the cursor more than a window ahead of the clock.
	f.Add(encodeOps(
		fuzzOp{opLocal, 3, 4},
		fuzzOp{opCancel, 0, 0},
		fuzzOp{opStep, 0, 0},
		fuzzOp{opLocal, 1, 5},
		fuzzOp{opLocal, 3, 0},
		fuzzOp{opPeek, 0, 0},
	))
	// Same-instant runs mixed with a scatter inside one slice.
	f.Add(encodeOps(
		fuzzOp{opLocal, 1, 15}, fuzzOp{opLocal, 1, 3}, fuzzOp{opLocal, 1, 9},
		fuzzOp{opLocal, 0, 0}, fuzzOp{opLocal, 1, 9}, fuzzOp{opLocal, 0, 0},
		fuzzOp{opInject, 0, 1}, fuzzOp{opLocal, 1, 3}, fuzzOp{opInject, 0, 2},
		fuzzOp{opLocal, 1, 12}, fuzzOp{opLocal, 1, 15}, fuzzOp{opPeek, 0, 0}, fuzzOp{opStep, 0, 0},
		fuzzOp{opLocal, 0, 0}, fuzzOp{opBefore, 1, 10},
	))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*512 {
			data = data[:3*512]
		}
		ops := make([]fuzzOp, 0, len(data)/3)
		for i := 0; i+3 <= len(data); i += 3 {
			ops = append(ops, fuzzOp{data[i], data[i+1], data[i+2]})
		}
		heap := fuzzRun(QueueHeap, ops)
		cal := fuzzRun(QueueCalendar, ops)
		if len(heap) != len(cal) {
			t.Fatalf("observations differ in length: heap %d, calendar %d\nheap %v\ncalendar %v", len(heap), len(cal), heap, cal)
		}
		for i := range heap {
			if heap[i] != cal[i] {
				t.Fatalf("observation %d differs: heap %d, calendar %d\nheap %v\ncalendar %v", i, heap[i], cal[i], heap, cal)
			}
		}
	})
}
