package sim

import "time"

// calQueue is a lazy calendar queue with a fixed geometry: the engine's
// default scheduler. The window spans calBuckets slices of calWidth
// each, starting at the bucket being drained. Insert hashes the event's
// time to its bucket and chains it into a (at, seq)-sorted intrusive
// list — O(1) for the common time-ordered arrival (tail append),
// O(chain) otherwise. Pop drains the current bucket, then advances
// slice by slice, lazily migrating due events in from the overflow
// tier: a 4-ary heap (heapQueue) holding everything beyond the window —
// RTOs, tickers, flow arrivals scheduled at setup.
//
// Handoff: the fixed slices suit a sparse near future, but a fabric's
// dense packet cluster crowds one slice and turns every insert into a
// chain walk. When an insert walks more than calWalkLimit links, the
// calendar moves every bucket event into its overflow heap and points
// the engine's queue slot at that heap for the rest of the run. The
// handoff is one-way and depends only on queue content (determinism).
//
// Pop returns the exact (at, schedAt, lane, seq) minimum, byte-identical
// to heapQueue's order, before and after a handoff: slices are scanned
// in increasing order, each chain is kept sorted, and the overflow tier
// only holds events at or beyond the window end (DESIGN.md §6).
// TestDifferentialQueues and the netsim workload differentials in
// differential_test.go verify this against heapQueue.
type calQueue struct {
	buckets [calBuckets]calBucket
	count   int // events resident in buckets (overflow excluded)

	cur       int           // bucket currently being drained
	bucketTop time.Duration // end of cur's time slice (multiple of calWidth)
	winEnd    time.Duration // end of the active window; events >= winEnd overflow

	overflow heapQueue
	serve    *eventQueue // the engine's queue slot; handoff points it at overflow

	migrations uint64 // overflow events pulled into buckets (off the per-pop path)
}

// calBucket chains events whose time hashes to this slice, sorted
// ascending by (at, seq). The tail pointer makes the dominant
// append-at-end insertion O(1), including long same-timestamp runs.
type calBucket struct {
	head, tail *event
}

const (
	// calBuckets is the window length in slices; an empty bucket costs
	// one pointer check to skip.
	calBuckets = 64
	// calShift is the slice width exponent: 2^10 ns ~= 1us, the scale of
	// packet serialization deltas. A power of two keeps the at->bucket
	// hash a shift instead of a 64-bit division (the division showed up
	// at ~15% of the forwarding hot path).
	calShift = 10
	calWidth = time.Duration(1) << calShift
	// calWalkLimit is the longest sorted-chain walk an insert may take
	// before the calendar hands off to its heap. Chosen by a sweep over
	// 16, 32 and 64 (DESIGN.md §6).
	calWalkLimit = 32
)

// newCalQueue returns an empty calendar serving from *serve, which it
// rewrites on handoff.
func newCalQueue(serve *eventQueue) *calQueue {
	c := &calQueue{serve: serve}
	c.anchor(0)
	*serve = c
	return c
}

func (c *calQueue) len() int { return c.count + c.overflow.len() }

// anchor positions the window so the slice containing time at is the
// current bucket. Callers must migrate (or reinsert) afterwards if
// overflow events may now fall inside the window.
func (c *calQueue) anchor(at time.Duration) {
	d := at >> calShift
	c.cur = int(uint64(d) & (calBuckets - 1))
	c.bucketTop = (d + 1) << calShift
	c.winEnd = c.bucketTop + calWidth*(calBuckets-1)
}

// push inserts ev, routing far-future events to the overflow tier, and
// hands off to the heap when the insert found its slice crowded.
func (c *calQueue) push(ev *event) {
	if ev.at >= c.winEnd {
		c.overflow.push(ev)
		return
	}
	if ev.at < c.bucketTop-calWidth {
		// The event lands in a slice behind the scan cursor. Serial
		// scheduling can't do this (insert clamps to the clock, which
		// never trails the slice under scan), but a cross-shard
		// injection can: the window may have anchored ahead — to the
		// overflow minimum after a transient drain, or across an empty
		// gap — while the shard's clock, which lower-bounds injected
		// arrival times, lags behind it. Rewind the window so the scan
		// revisits the event's slice. Events left in the de-windowed
		// top slices alias harmlessly: pop and peek admit a bucket's
		// head only when its time falls inside the slice under scan, so
		// they simply wait until the window advances back over them.
		c.anchor(ev.at)
	}
	c.count++
	if c.insertBucket(ev) {
		c.handoff()
	}
}

// insertBucket chains ev into its slice's sorted list. It reports
// whether the insert walked more than calWalkLimit links.
func (c *calQueue) insertBucket(ev *event) (crowded bool) {
	b := &c.buckets[uint64(ev.at>>calShift)&(calBuckets-1)]
	switch {
	case b.tail == nil:
		ev.next = nil
		b.head, b.tail = ev, ev
	case !eventLess(ev, b.tail):
		// Time-ordered arrival (and every same-timestamp run, since seq
		// grows monotonically): append at the tail.
		ev.next = nil
		b.tail.next = ev
		b.tail = ev
	case eventLess(ev, b.head):
		ev.next = b.head
		b.head = ev
	default:
		p, walked := b.head, 0
		for !eventLess(ev, p.next) {
			p = p.next
			walked++
		}
		ev.next = p.next
		p.next = ev
		return walked > calWalkLimit
	}
	return false
}

// handoff moves every bucket event into the overflow heap and makes
// that heap the engine's queue for the rest of the run.
func (c *calQueue) handoff() {
	for i := range c.buckets {
		for ev := c.buckets[i].head; ev != nil; {
			next := ev.next
			ev.next = nil
			c.overflow.push(ev)
			ev = next
		}
		c.buckets[i] = calBucket{}
	}
	c.count = 0
	*c.serve = &c.overflow
}

// pop removes and returns the (at, seq)-minimum event, or nil when the
// queue is empty.
func (c *calQueue) pop() *event {
	if c.count == 0 {
		o := c.overflow.peek()
		if o == nil {
			return nil
		}
		// The window drained: jump it to the overflow minimum and pull
		// the now-due tier in.
		c.anchor(o.at)
		c.migrate()
	}
	steps := 0
	for {
		b := &c.buckets[c.cur]
		if ev := b.head; ev != nil && ev.at < c.bucketTop {
			b.head = ev.next
			if b.head == nil {
				b.tail = nil
			}
			ev.next = nil
			c.count--
			return ev
		}
		// Empty slice: slide the window one slice forward. If the scan
		// has crossed half the buckets the next event sits across a wide
		// empty gap — long-jump straight to it instead of creeping
		// (amortized: the jump's O(buckets) search is paid for by the
		// O(buckets) of skipping we just avoided).
		if steps++; steps > calBuckets/2 {
			// Jump to the true minimum across both tiers: after a rewind
			// (see push) the bucket tier may hold de-windowed events that
			// sort after the overflow minimum, and anchoring past it would
			// make migrate land it behind the cursor.
			m := c.directMin()
			if o := c.overflow.peek(); o != nil && eventLess(o, m) {
				m = o
			}
			c.anchor(m.at)
			c.migrate()
			steps = 0
			continue
		}
		c.advance()
	}
}

// peek returns the (at, seq)-minimum event without removing it, or nil.
// It never mutates the queue, so interleaved peeks and pushes stay safe.
func (c *calQueue) peek() *event {
	var cand *event
	if c.count > 0 {
		cur, top := c.cur, c.bucketTop
		for i := 0; i <= calBuckets; i++ {
			b := &c.buckets[cur]
			if ev := b.head; ev != nil && ev.at < top {
				cand = ev
				break
			}
			top += calWidth
			if cur++; cur == calBuckets {
				cur = 0
			}
		}
		if cand == nil {
			// Unreachable if the window invariant holds; fall back to an
			// exact search rather than report an empty queue.
			cand = c.directMin()
		}
	}
	if o := c.overflow.peek(); o != nil && (cand == nil || eventLess(o, cand)) {
		return o
	}
	return cand
}

// advance moves the scan to the next slice, sliding the window forward
// and migrating overflow events that just became near-future.
func (c *calQueue) advance() {
	if c.cur++; c.cur == calBuckets {
		c.cur = 0
	}
	c.bucketTop += calWidth
	c.winEnd += calWidth
	c.migrate()
}

// migrate pulls overflow events that now fall inside the window into
// their buckets. A crowded migration does not hand off mid-pop; the
// next crowded push does.
func (c *calQueue) migrate() {
	for {
		o := c.overflow.peek()
		if o == nil || o.at >= c.winEnd {
			return
		}
		c.insertBucket(c.overflow.pop())
		c.count++
		c.migrations++
	}
}

// directMin finds the earliest bucket event by comparing chain heads
// (each chain is sorted, so its head is its minimum). Only valid with
// count > 0.
func (c *calQueue) directMin() *event {
	var min *event
	for i := range c.buckets {
		if ev := c.buckets[i].head; ev != nil && (min == nil || eventLess(ev, min)) {
			min = ev
		}
	}
	return min
}
