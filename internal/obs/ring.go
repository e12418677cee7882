package obs

import (
	"fmt"
	"io"
)

// Ring is a preallocated circular buffer of trace events. Appends are
// O(1), never allocate, and — by default — overwrite the oldest record
// once the ring is full, so a long simulation keeps its most recent
// window instead of growing without bound. Dropped() says how many
// records the wrap discarded.
//
// Attaching a SpillWriter (SetSpill) changes the full-ring policy from
// overwrite to flush: the retained events are streamed into the spill
// sink oldest-first and the ring empties, so nothing is ever lost and
// Dropped() stays 0. The spill sink absorbs I/O errors without
// disturbing the hot append path; they surface from FlushSpill (or the
// next flush) instead.
type Ring struct {
	buf   []Event
	head  int    // index of the oldest retained event
	n     int    // retained events
	total uint64 // events ever appended

	spill    *SpillWriter
	spillErr error
}

// NewRing returns a ring holding up to capacity events (minimum 1).
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{buf: make([]Event, capacity)}
}

// SetSpill attaches a spill sink. Must be called before the first
// event: a ring switches between overwrite and spill semantics only
// while empty, so a trace is never part-window, part-stream.
func (r *Ring) SetSpill(s *SpillWriter) {
	if r.total != 0 {
		panic("obs: SetSpill on a ring that has recorded events")
	}
	r.spill = s
}

// nextSlot claims the slot the next event will occupy, applying the
// full-ring policy first: when full, spill-flush if a sink is
// attached, otherwise overwrite the oldest. This is the hot emit path:
// probes build the event directly in the returned slot, so a record
// never exists anywhere else. The caller must overwrite the slot completely (it
// still holds a long-evicted event).
func (r *Ring) nextSlot() *Event {
	if r.n == len(r.buf) {
		if r.spill != nil {
			r.flushSpill()
		} else {
			r.head++
			if r.head == len(r.buf) {
				r.head = 0
			}
			r.n--
		}
	}
	i := r.head + r.n
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	r.n++
	r.total++
	return &r.buf[i]
}

// flushSpill streams the retained events into the spill sink oldest
// first (at most two contiguous segments) and empties the ring. Errors
// are recorded, not returned: appending must stay infallible on the hot
// path, and a trace-file error should fail the export, not the run.
func (r *Ring) flushSpill() {
	for _, seg := range r.segments() {
		if len(seg) == 0 {
			continue
		}
		if err := r.spill.Spill(seg); err != nil && r.spillErr == nil {
			r.spillErr = err
		}
	}
	r.head, r.n = 0, 0
}

// segments returns the retained events oldest-first as up to two
// contiguous slices of the backing array (no copying).
func (r *Ring) segments() [2][]Event {
	if r.head+r.n <= len(r.buf) {
		return [2][]Event{r.buf[r.head : r.head+r.n], nil}
	}
	return [2][]Event{r.buf[r.head:], r.buf[:r.head+r.n-len(r.buf)]}
}

// FlushSpill pushes the retained events into the spill sink and reports
// the first error any spill encountered (including earlier deferred
// ones). It does not Close the sink. Calling it with no sink attached
// is an error only if events would be stranded — a no-op on an empty
// ring.
func (r *Ring) FlushSpill() error {
	if r.spill == nil {
		if r.n == 0 {
			return nil
		}
		return fmt.Errorf("obs: FlushSpill on a ring with no spill sink")
	}
	r.flushSpill()
	return r.spillErr
}

// SpillErr returns the first deferred spill error, if any.
func (r *Ring) SpillErr() error { return r.spillErr }

// Total returns the number of events ever appended (retained + spilled
// + lost to wraparound).
func (r *Ring) Total() uint64 { return r.total }

// Spilled returns the number of events flushed to the spill sink.
func (r *Ring) Spilled() uint64 {
	if r.spill == nil {
		return 0
	}
	return r.spill.Spilled()
}

// Dropped returns the number of events lost to wraparound. With a spill
// sink attached it is always 0.
func (r *Ring) Dropped() uint64 { return r.total - r.Spilled() - uint64(r.n) }

// Do calls fn on every retained event, oldest first. The pointer is
// only valid for the duration of the call. Spilled events are not
// revisited — read the spill file for the full stream.
func (r *Ring) Do(fn func(ev *Event)) {
	for i := 0; i < r.n; i++ {
		j := r.head + i
		if j >= len(r.buf) {
			j -= len(r.buf)
		}
		fn(&r.buf[j])
	}
}

// Events returns the retained events oldest-first as a fresh slice.
func (r *Ring) Events() []Event {
	out := make([]Event, 0, r.n)
	r.Do(func(ev *Event) { out = append(out, *ev) })
	return out
}

// WriteBinary writes the retained events to w in the binary trace
// format. The inverse is ReadBinary.
func (r *Ring) WriteBinary(w io.Writer) error {
	return WriteBinary(w, r.Events())
}
