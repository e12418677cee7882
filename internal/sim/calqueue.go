package sim

import (
	"math/bits"
	"time"
)

// calQueue is a lazy calendar queue with one fixed geometry: the
// engine's default scheduler, for every run. The window spans
// calBuckets slices of calWidth each, starting at the bucket being
// drained. Insert hashes the event's time to its bucket and chains it
// into a (at, seq)-sorted intrusive list — O(1) for the common
// time-ordered arrival (tail append), O(chain) otherwise; the slices are
// fine enough that a fabric's packet cluster spreads over many of them.
// A two-level occupancy bitmap indexes the non-empty buckets, so pop and
// peek reach the next event in a constant number of word operations
// however wide the empty gap before it. Events beyond the window wait in
// the overflow tier, a 4-ary heap (heapQueue) — RTOs, tickers, flow
// arrivals scheduled at setup — and migrate into buckets as the window
// slides out to them.
//
// Pop returns the exact (at, schedAt, lane, seq) minimum, byte-identical
// to heapQueue's order: every bucket event lies inside the window, each
// bucket holds one slice's events in sorted order, and the overflow tier
// only holds events at or beyond the window end (DESIGN.md §6).
// TestDifferentialQueues, FuzzCalendarMatchesHeap and the netsim
// workload differentials in differential_test.go verify this against
// heapQueue.
type calQueue struct {
	buckets [calBuckets]calBucket
	// occ has bit i%64 of word i/64 set while bucket i is non-empty;
	// summary has bit w set while occ[w] is non-zero.
	occ     [calBuckets / 64]uint64
	summary uint64
	count   int // events resident in buckets (overflow excluded)

	cur       int           // bucket currently being drained
	bucketTop time.Duration // end of cur's time slice (multiple of calWidth)
	winEnd    time.Duration // end of the active window; events >= winEnd overflow

	overflow heapQueue

	migrations uint64 // overflow events pulled into buckets (off the per-pop path)
	walkMax    int    // longest sorted-chain walk an insert took
}

// calBucket chains events whose time hashes to this slice, sorted
// ascending by (at, seq). The tail pointer makes the dominant
// append-at-end insertion O(1), including long same-timestamp runs.
type calBucket struct {
	head, tail *event
}

const (
	// calBuckets is the window length in slices. With the occupancy
	// bitmap an empty bucket costs nothing to skip; 4,096 keeps the
	// bitmap at 64 words, so one summary word covers it.
	calBuckets = 1 << 12
	// calShift is the slice width exponent: 2^4 ns, finer than one
	// MTU's serialization at 100 Gbps, so a fabric's packet cluster
	// rarely shares a slice. The window stays 2^16 ns ~= 65 us. A power
	// of two keeps the at->bucket hash a shift instead of a 64-bit
	// division. Chosen by a geometry sweep (DESIGN.md §6).
	calShift = 4
	calWidth = time.Duration(1) << calShift
)

func newCalQueue() *calQueue {
	c := &calQueue{}
	c.anchor(0)
	return c
}

func (c *calQueue) len() int { return c.count + c.overflow.len() }

// anchor positions the window so the slice containing time at is the
// current bucket. Callers must migrate afterwards if overflow events may
// now fall inside the window.
func (c *calQueue) anchor(at time.Duration) {
	d := at >> calShift
	c.cur = int(uint64(d) & (calBuckets - 1))
	c.bucketTop = (d + 1) << calShift
	c.winEnd = c.bucketTop + calWidth*(calBuckets-1)
}

// push inserts ev, routing far-future events to the overflow tier.
func (c *calQueue) push(ev *event) {
	if ev.at >= c.winEnd {
		c.overflow.push(ev)
		return
	}
	if ev.at < c.bucketTop-calWidth {
		c.rewind(ev.at)
	}
	c.count++
	c.insertBucket(ev)
}

// rewind moves the window back so it starts at the slice of at. The
// engine's clock lower-bounds every insert and a pop moves the cursor
// only to the event it returns, so an insert lands behind the cursor
// only after the engine popped events that left the clock behind:
// cancelled ones it reaped, before a local schedule or a cross-shard
// injection. The buckets of the slices uncovered at the front still
// hold events from the old window's end, which now lies beyond the new
// window; those move to the overflow tier, so every bucket event stays
// inside the window.
func (c *calQueue) rewind(at time.Duration) {
	back := int((c.bucketTop-calWidth)>>calShift - at>>calShift)
	c.anchor(at)
	if back > calBuckets {
		back = calBuckets
	}
	for i := c.cur; c.count > 0; {
		i = c.nextOccupied(i)
		if (i-c.cur)&(calBuckets-1) >= back {
			return
		}
		b := &c.buckets[i]
		for ev := b.head; ev != nil; {
			next := ev.next
			ev.next = nil
			c.overflow.push(ev)
			c.count--
			ev = next
		}
		*b = calBucket{}
		c.clear(i)
	}
}

// insertBucket chains ev into its slice's sorted list.
func (c *calQueue) insertBucket(ev *event) {
	i := int(uint64(ev.at>>calShift) & (calBuckets - 1))
	b := &c.buckets[i]
	switch {
	case b.tail == nil:
		ev.next = nil
		b.head, b.tail = ev, ev
		c.occ[i>>6] |= 1 << (i & 63)
		c.summary |= 1 << (i >> 6)
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
		if walked > c.walkMax {
			c.walkMax = walked
		}
	}
}

// clear marks bucket i empty in the occupancy bitmap.
func (c *calQueue) clear(i int) {
	w := i >> 6
	if c.occ[w] &^= 1 << (i & 63); c.occ[w] == 0 {
		c.summary &^= 1 << w
	}
}

// nextOccupied returns the first non-empty bucket at or after from,
// wrapping past the last bucket. Only valid with count > 0.
func (c *calQueue) nextOccupied(from int) int {
	w := from >> 6
	if m := c.occ[w] >> (from & 63); m != 0 {
		return from + bits.TrailingZeros64(m)
	}
	s := c.summary >> (w + 1) << (w + 1)
	if s == 0 {
		s = c.summary // wrap: the first occupied word from the start
	}
	w = bits.TrailingZeros64(s)
	return w<<6 + bits.TrailingZeros64(c.occ[w])
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
	i := c.nextOccupied(c.cur)
	b := &c.buckets[i]
	ev := b.head
	if i != c.cur {
		// Slide the window forward to the event's slice and pull in the
		// overflow events that just became near-future; they land
		// beyond this slice, so ev stays the minimum.
		c.anchor(ev.at)
		c.migrate()
	}
	if b.head = ev.next; b.head == nil {
		b.tail = nil
		c.clear(i)
	}
	ev.next = nil
	c.count--
	return ev
}

// peek returns the (at, seq)-minimum event without removing it, or nil.
// It never mutates the queue, so interleaved peeks and pushes stay safe.
// Every bucket event sorts before every overflow event, so the overflow
// tier only answers when the buckets are empty.
func (c *calQueue) peek() *event {
	if c.count > 0 {
		return c.buckets[c.nextOccupied(c.cur)].head
	}
	return c.overflow.peek()
}

// migrate pulls overflow events that now fall inside the window into
// their buckets.
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
