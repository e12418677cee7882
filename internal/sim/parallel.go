package sim

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// This file implements sharded parallel simulation: several engines
// (one per topology shard) run concurrently inside conservative
// windows and exchange boundary events between windows.
//
// The coordinator keeps one clock per directed shard pair — the
// CMB/null-message discipline, computed centrally. Every registered
// boundary folds into a channel src->dst whose delay is the minimum
// over that pair's cut links. Each shard publishes a lower bound lb on
// the time of any send it may still perform; a shard's window grant is
// then the minimum of lb(src)+delay(src->dst) over *its own* incoming
// channels, not the global minimum cut delay. Idle shards publish null
// advances: lb relaxes through them (lb = min(next local event,
// min over incoming channels of lb(src)+delay)), exactly the
// shortest-path closure min over shards t of nextAt(t)+dist(t->s) — so
// a quiet region of the fabric never gates a busy one, and distant
// shards never wait on the topology's tightest link. There is no full
// barrier: the coordinator grants each shard as soon as its own
// channels allow and collects completions one at a time. The classical
// bounded-lag protocol — one global window [T, T+L) with L the minimum
// cut delay and a barrier after every window — is the special case in
// which every channel carries the same delay L (DESIGN.md section 8).
//
// Safety invariant. A shard executing events strictly before its
// window end W must already hold every cross-shard arrival with
// timestamp < W. A send from shard j is performed by an event j
// executes, and j never executes anything before its published lb(j) —
// frozen at its window start while a window is in flight, relaxed
// through the channel graph while idle — so the arrival lands at
// >= lb(j)+delay(j->dst) >= grant(dst) = W. Arrivals produced *during*
// a destination's own window are parked (pendingSlabs) and injected
// when that window completes; they are all at or beyond the
// destination's grant, hence beyond everything that window executed.
// Windows are half-open so an arrival exactly at a window end is
// injected before the events it could tie with are run.
//
// Deadlock freedom. Delays are strictly positive, so the shard owning
// the globally earliest pending event m always receives a grant
// > m (every incoming channel contributes >= m + delay > m): some
// shard is always dispatchable while work remains.
//
// Determinism and serial equivalence. The window bounds themselves
// depend on completion order (the coordinator grants as completions
// arrive), but the *result* does not: an engine executes its queue in
// the strict total key order (at, schedAt, lane, seq), and the safety
// invariant guarantees every injection is queued before execution
// passes its key. Window bounds only partition that fixed per-shard
// sequence, so the executed sequence — and every trace, FCT and
// processed-event count derived from it — is invariant across
// goroutine schedules at the same shard count. The serial engine
// orders same-time events by seq, which is assigned in scheduling
// order; because the clock never runs backwards, that is equivalent to
// ordering by (schedAt, seq). A cross-shard injection carries its true
// schedAt (the sending engine's clock at send time) and the sender's
// monotone cross-send seq, so it sorts against the destination's local
// events exactly where the serial engine would have placed it — except
// when a local and a remote event (or two remote events from different
// shards) carry the *same* (at, schedAt): two causally independent
// schedules at the same instant whose serial order depended on global
// seq interleaving no shard can reconstruct. The key then falls back
// to lane order (locals first, then by sending shard). The fat-tree,
// the one sharded topology, skews its cut cables by a nanosecond each
// so no such tie arises: differential_test.go proves it byte-identical
// to serial at k=8 and k=32, and parallel_test.go does the same on
// random shard graphs. See DESIGN.md section 8.
//
// Threading. Each shard owns one dedicated worker goroutine that
// executes all of its windows; engines are only ever touched by that
// worker (inside a window) or by the coordinator (between the shard's
// windows), with channel sends establishing the happens-before edges
// between the two. Nothing in the engine grows locks.

// ParMode names a coordinator window protocol. ParChannel is the only
// one; the type survives for callers that still select it explicitly.
type ParMode int

// ParChannel is the per-channel-clock protocol described above.
const ParChannel ParMode = 0

// timeInf is the channel clocks' "no bound" sentinel. Saturating
// arithmetic (satAdd) keeps delay sums from wrapping past it.
const timeInf = time.Duration(math.MaxInt64)

func satAdd(a, b time.Duration) time.Duration {
	if a >= timeInf-b {
		return timeInf
	}
	return a + b
}

// Coordinator synchronizes a set of shard engines. Create one with
// NewCoordinator, add shards with NewShard, declare every cross-shard
// link with Boundary, then drive the whole simulation with RunUntil.
// The configuration — shards and boundaries — is frozen by the first
// RunUntil call; registering a boundary afterwards panics, because a
// late registration would silently invalidate the channel clocks
// already used to admit executed windows.
type Coordinator struct {
	shards  []*Shard
	started bool

	// chanDelay folds every registered boundary into the per-(src,dst)
	// minimum delay: the channel graph the per-channel clocks run on.
	chanDelay map[[2]int]time.Duration
	// in is the flattened channel graph, per destination shard, built
	// once at the first windowed RunUntil.
	in [][]inChan

	// doneCh receives window completions (unbuffered: the handoff is
	// the happens-before edge back to the coordinator). It is created
	// fresh per RunUntil and handed to workers by value, never read
	// back through this field from a worker: a worker left over from
	// a previous run (still parked on its closed grant channel) must
	// not race with the next run re-making it.
	doneCh chan *Shard

	// rt collects runtime self-observation when EnableRuntimeStats was
	// called; mon is the live progress surface when SetMonitor was.
	// Both nil (disabled) by default; frozen at the first RunUntil like
	// the rest of the configuration.
	rt  *runStats
	mon *Monitor

	// slabPool recycles drained event slabs across all shards. Slabs
	// migrate with the traffic matrix (a slab filled by one shard is
	// often drained while another's worker holds the sender busy), so
	// per-shard free lists starve senders into fresh allocations every
	// window; a shared pool keeps the steady-state slab population —
	// and their grown ev backing arrays — in circulation instead.
	slabPool sync.Pool
}

// inChan is one incoming channel of a shard: the sending shard and the
// minimum delay over the boundaries folded into the channel.
type inChan struct {
	src   int
	delay time.Duration
}

// Shard is one engine plus its cross-shard plumbing.
type Shard struct {
	coord *Coordinator
	id    int
	eng   *Engine

	// Cross-shard sends accumulate in per-destination slabs, handed off
	// whole: outboxTo[d] is the slab of this window's sends to shard d
	// (nil until the first send), outDst lists the destinations touched
	// in first-send order so the drain walks only live slabs. Only the
	// worker running the window appends; only the coordinator drains
	// (after receiving the completion) — the same grant/done channel
	// handoff that transfers engine ownership transfers slab ownership.
	// Drained slabs recycle through the coordinator's slabPool
	// (pooled-packet discipline: a slab is owned by exactly one side at
	// a time; the pool only ever holds cleared, unowned slabs).
	outboxTo []*eventSlab
	outDst   []int
	sendSeq  uint64

	// Cached earliest-pending-event time, maintained by runBefore
	// returns and injections so the coordinator never rescans engine
	// queues.
	nextAt  time.Duration
	hasNext bool

	// Channel-clock state, owned by the coordinator goroutine.
	// lb is the published lower bound on the time of any send this
	// shard may still perform: frozen at the window start while a
	// window is in flight, relaxed through the channel graph while
	// idle. pendingSlabs parks whole arrival slabs delivered while a
	// window runs (a pointer swap, not a per-event copy); they are
	// injected when it completes (every event in them is at or beyond
	// the shard's own grant, so nothing executed could have needed
	// them). A parked slab is recycled through the shared slab pool once
	// drained — never into per-shard state that its original owner
	// might be touching.
	running      bool
	lb           time.Duration
	grantEnd     time.Duration
	pendingSlabs []*eventSlab

	grantCh chan struct{}

	// mon is this shard's progress slot when a Monitor is attached (nil
	// otherwise); the worker executing a window publishes into it at the
	// window boundary.
	mon *MonitorShard
}

// remoteEvent is one cross-shard delivery waiting to be injected. The
// destination is carried by the slab holding it, not per event.
type remoteEvent struct {
	at     time.Duration
	sentAt time.Duration
	lane   uint32
	seq    uint64
	fn     func(any)
	arg    any
}

// eventSlab is one window's batch of deliveries from one source shard
// to one destination. The coordinator moves slabs by pointer — park,
// inject, recycle — so cross-shard traffic costs O(slabs), not
// O(events), on the coordinator's critical path. minAt caches the
// earliest arrival so absorbing a slab updates the destination's
// cached next-event time with a single comparison.
type eventSlab struct {
	ev    []remoteEvent
	minAt time.Duration
}

// getSlab takes a recycled slab from the shared pool (or allocates the
// first few). Called from Boundary.Send (worker context); sync.Pool is
// safe there, and the caller fully initializes the slab (minAt on the
// first append), so pool pick order cannot influence results.
func (s *Shard) getSlab() *eventSlab {
	if sl, ok := s.coord.slabPool.Get().(*eventSlab); ok && sl != nil {
		return sl
	}
	return &eventSlab{}
}

// putSlab recycles a drained slab, dropping callback and payload
// references so the delivered events' object graphs can be collected
// while the slab (and its grown backing array) stays in circulation.
// Called only on slabs no shard holds a reference to.
func (s *Shard) putSlab(sl *eventSlab) {
	clear(sl.ev)
	sl.ev = sl.ev[:0]
	s.coord.slabPool.Put(sl)
}

// injectSlab injects a slab's events into the destination engine and
// folds the slab's earliest arrival into the cached next-event time.
func injectSlab(d *Shard, sl *eventSlab) {
	for i := range sl.ev {
		r := &sl.ev[i]
		d.eng.injectRemote(r.at, r.sentAt, r.lane, r.seq, r.fn, r.arg)
	}
	if len(sl.ev) > 0 && (!d.hasNext || sl.minAt < d.nextAt) {
		d.nextAt, d.hasNext = sl.minAt, true
	}
}

// NewCoordinator returns an empty coordinator.
func NewCoordinator() *Coordinator {
	return &Coordinator{chanDelay: make(map[[2]int]time.Duration)}
}

// NewShard adds a shard with a fresh calendar-queue engine.
func (c *Coordinator) NewShard() *Shard {
	if c.started {
		panic("sim: NewShard after RunUntil — the coordinator's shard set is frozen once the first window has run")
	}
	s := &Shard{coord: c, id: len(c.shards), eng: NewEngine()}
	c.shards = append(c.shards, s)
	return s
}

// Shards returns the shards in creation order.
func (c *Coordinator) Shards() []*Shard { return c.shards }

// SetMode accepts ParChannel, the only protocol, and panics on any
// other value. It is kept for the repository benchmark, which selects
// the protocol explicitly.
func (c *Coordinator) SetMode(m ParMode) {
	if m != ParChannel {
		panic(fmt.Sprintf("sim: unknown window protocol %d (ParChannel is the only one)", int(m)))
	}
}

// Engine returns the shard's engine. Entities placed on this shard must
// schedule exclusively against it.
func (s *Shard) Engine() *Engine { return s.eng }

// ID returns the shard's index in creation order.
func (s *Shard) ID() int { return s.id }

// Boundary declares a directed cross-shard link with the given
// propagation delay and returns the handle its sender uses to deliver
// across the cut. The delay lower-bounds the src->dst channel clock, so
// it must be positive: a zero-delay cut would make the conservative
// window empty.
//
// Every boundary must be registered before the first RunUntil;
// registering one afterwards panics. Admitting a late boundary would
// be a silent correctness hazard: windows already executed were
// admitted against channel clocks that did not
// account for the new link, so a delivery crossing it could land
// inside a window that already ran.
func (c *Coordinator) Boundary(from, to *Shard, delay time.Duration) *Boundary {
	if c.started {
		panic("sim: Boundary registered after RunUntil — cross-shard links are frozen once the first window has run (a late link would invalidate the channel clocks already used to admit executed windows)")
	}
	if from == to {
		panic("sim: boundary endpoints are the same shard (use a local link)")
	}
	if from.coord != c || to.coord != c {
		panic("sim: boundary shards belong to a different coordinator")
	}
	if delay <= 0 {
		panic(fmt.Sprintf("sim: boundary delay must be positive, got %v", delay))
	}
	key := [2]int{from.id, to.id}
	if d, ok := c.chanDelay[key]; !ok || delay < d {
		c.chanDelay[key] = delay
	}
	return &Boundary{from: from, to: to, delay: delay}
}

// Boundary is the sending end of one cross-shard link.
type Boundary struct {
	from, to *Shard
	delay    time.Duration
}

// Delay returns the boundary's propagation delay.
func (b *Boundary) Delay() time.Duration { return b.delay }

// SourceEngine returns the sending shard's engine — the clock governing
// everything that transmits across this boundary (a port whose link is
// a boundary link schedules its serialization timers here).
func (b *Boundary) SourceEngine() *Engine { return b.from.eng }

// Send schedules fn(arg) on the destination shard one propagation delay
// from now. It must be called from the sending shard's execution
// context (i.e. from an event running on its engine); the delivery is
// appended to the shard's per-destination slab and handed off whole
// after the window completes, with the full deterministic key: arrival
// time, sending clock, sending shard's lane and cross-send sequence.
func (b *Boundary) Send(fn func(any), arg any) {
	s := b.from
	now := s.eng.now
	at := now + b.delay
	dst := b.to.id
	for len(s.outboxTo) <= dst {
		s.outboxTo = append(s.outboxTo, nil)
	}
	sl := s.outboxTo[dst]
	if sl == nil {
		sl = s.getSlab()
		sl.minAt = at
		s.outboxTo[dst] = sl
		s.outDst = append(s.outDst, dst)
	} else if at < sl.minAt {
		sl.minAt = at
	}
	sl.ev = append(sl.ev, remoteEvent{
		at:     at,
		sentAt: now,
		lane:   uint32(1 + s.id),
		seq:    s.sendSeq,
		fn:     fn,
		arg:    arg,
	})
	s.sendSeq++
}

// RunUntil executes events with timestamps <= deadline on every shard,
// advancing them in conservative windows. On return every shard's clock
// is at the deadline (matching Engine.RunUntil). A single-shard
// coordinator degenerates to the serial RunUntil. The first call freezes the coordinator's
// configuration (see Boundary).
func (c *Coordinator) RunUntil(deadline time.Duration) {
	c.started = true
	if rt := c.rt; rt != nil {
		rt.size(len(c.shards))
		start := time.Now()
		defer func() { rt.wall += time.Since(start) }()
	}
	if c.mon != nil {
		c.mon.deadline.Store(int64(deadline))
		slots := c.mon.attach(len(c.shards))
		for i, s := range c.shards {
			s.mon = slots[i]
		}
	}
	switch {
	case len(c.shards) == 0:
		return
	case len(c.shards) == 1:
		c.runDegenerate(c.shards[:1], deadline)
		return
	case len(c.chanDelay) == 0:
		// No boundaries: the shards are fully independent simulations.
		c.runDegenerate(c.shards, deadline)
		return
	}

	for _, s := range c.shards {
		ev := s.eng.peek()
		s.hasNext = ev != nil
		if s.hasNext {
			s.nextAt = ev.at
		}
	}
	c.runChannel(deadline)
	for _, s := range c.shards {
		s.eng.advanceTo(deadline)
		if s.mon != nil {
			s.mon.publish(s.eng.processed, s.eng.now)
		}
	}
}

// runDegenerate runs shards to the deadline serially, for the cases
// that need no windowing (a single shard, or no cross-shard
// boundaries). Instrumentation treats each engine run as one window on
// the shard's own worker slot; the engine publishes live progress
// itself while it runs.
func (c *Coordinator) runDegenerate(shards []*Shard, deadline time.Duration) {
	for _, s := range shards {
		if s.mon != nil {
			s.eng.mon = s.mon
		}
		if rt := c.rt; rt != nil {
			start := time.Now()
			e0 := s.eng.processed
			s.eng.RunUntil(deadline)
			d := int64(time.Since(start))
			sc := &rt.shards[s.id]
			sc.events.Add(s.eng.processed - e0)
			sc.busy.Add(d)
			wc := &rt.workers[s.id]
			wc.windows.Add(1)
			wc.busy.Add(d)
		} else {
			s.eng.RunUntil(deadline)
		}
		if s.mon != nil {
			s.eng.mon = nil
			s.mon.publish(s.eng.processed, s.eng.now)
		}
	}
}

// runChannel is the per-channel-clock protocol: per-shard grants, no
// barrier, completions absorbed one at a time.
func (c *Coordinator) runChannel(deadline time.Duration) {
	c.buildChannels()
	stop := c.startWorkers()
	defer stop()

	// limit is the exclusive execution bound: one nanosecond past the
	// deadline, so events exactly at the deadline still run.
	limit := deadline + 1
	running := 0
	for {
		running += c.grantWindows(limit, deadline)
		if running == 0 {
			// No window in flight and nothing grantable: the run is
			// complete unless the protocol stalled, which the positive
			// channel delays make impossible (the earliest-event shard
			// is always grantable) — so a leftover is a bug, and
			// silently dropping its events would corrupt results.
			for _, s := range c.shards {
				if s.hasNext && s.nextAt <= deadline {
					panic(fmt.Sprintf("sim: channel-clock coordinator stalled with shard %d pending at %v", s.id, s.nextAt))
				}
			}
			return
		}
		var s *Shard
		if rt := c.rt; rt != nil {
			t0 := time.Now()
			s = <-c.doneCh
			rt.coordBlocked += time.Since(t0)
		} else {
			s = <-c.doneCh
		}
		running--
		c.completeWindow(s)
		// Absorb any other already-finished windows before regranting:
		// completions only widen grants, and folding a batch into one
		// clock relaxation amortizes it. A blocked sender on the
		// unbuffered doneCh makes the receive immediately ready.
		for drained := false; !drained; {
			select {
			case s := <-c.doneCh:
				running--
				c.completeWindow(s)
			default:
				drained = true
			}
		}
	}
}

// grantWindows relaxes the channel clocks and dispatches every idle
// shard whose own incoming channels admit work, returning the number of
// windows granted.
func (c *Coordinator) grantWindows(limit, deadline time.Duration) int {
	c.relaxClocks()
	rt := c.rt
	if rt != nil {
		rt.grantCalls++
	}
	granted := 0
	for _, s := range c.shards {
		if s.running || !s.hasNext || s.nextAt > deadline {
			continue
		}
		g := c.grantFor(s)
		if g > limit {
			g = limit
		}
		if g <= s.nextAt {
			continue
		}
		s.running = true
		// Freeze the published bound at the window start: the window
		// executes events at >= nextAt only, so no send it performs —
		// and nothing parked in its outbox — can precede it.
		s.lb = s.nextAt
		s.grantEnd = g
		granted++
		if rt != nil {
			sc := &rt.shards[s.id]
			sc.grants++
			sc.grantWidth += g - s.nextAt
		}
		s.grantCh <- struct{}{}
	}
	return granted
}

// relaxClocks publishes every idle shard's lower bound on future sends:
// lb = min(next local event, min over incoming channels of
// lb(src)+delay). Running shards keep the bound frozen at their window
// start (they execute nothing earlier, and chains relayed through them
// can only arrive later). The relaxation is plain Bellman-Ford over
// the channel graph — the centralized form of CMB null messages: a
// shard with no local work still advances its neighbors' clocks by
// its own earliest possible cause plus the channel delay.
func (c *Coordinator) relaxClocks() {
	rt := c.rt
	for _, s := range c.shards {
		if s.running {
			continue
		}
		if s.hasNext {
			s.lb = s.nextAt
		} else {
			s.lb = timeInf
		}
	}
	for {
		changed := false
		if rt != nil {
			rt.relaxRounds++
		}
		for dst, ins := range c.in {
			d := c.shards[dst]
			if d.running {
				continue
			}
			for _, ch := range ins {
				if v := satAdd(c.shards[ch.src].lb, ch.delay); v < d.lb {
					d.lb = v
					changed = true
					if rt != nil {
						rt.shards[dst].nullAdvances++
					}
				}
			}
		}
		if !changed {
			return
		}
	}
}

// grantFor returns the shard's window grant: the minimum channel clock
// over its incoming channels (timeInf for a shard nothing sends to).
func (c *Coordinator) grantFor(s *Shard) time.Duration {
	g := timeInf
	for _, ch := range c.in[s.id] {
		if v := satAdd(c.shards[ch.src].lb, ch.delay); v < g {
			g = v
		}
	}
	return g
}

// buildChannels flattens the registered boundaries into the per-shard
// incoming channel lists, in (src, dst) creation order so the layout —
// and hence the relaxation's memory access pattern — is reproducible.
func (c *Coordinator) buildChannels() {
	if c.in != nil {
		return
	}
	c.in = make([][]inChan, len(c.shards))
	for _, from := range c.shards {
		for _, to := range c.shards {
			if d, ok := c.chanDelay[[2]int{from.id, to.id}]; ok {
				c.in[to.id] = append(c.in[to.id], inChan{src: from.id, delay: d})
			}
		}
	}
}

// completeWindow absorbs one finished window: the shard's outbox slabs
// are handed to their destinations (injected straight into idle ones;
// parked whole — a pointer append — for running ones, whose engines
// are owned by their workers), its own parked slabs are injected, and
// it returns to the grantable pool.
func (c *Coordinator) completeWindow(s *Shard) {
	s.running = false
	rt := c.rt
	for _, dst := range s.outDst {
		sl := s.outboxTo[dst]
		s.outboxTo[dst] = nil
		d := c.shards[dst]
		if rt != nil {
			rt.shards[s.id].outboxSent += uint64(len(sl.ev))
		}
		if d.running {
			// d's engine is in flight; park the whole slab. Safe: every
			// arrival in it is at or beyond d's grant (that is how d's
			// grant was computed), so nothing d's current window
			// executes could need it. The slab now belongs to d and is
			// recycled into d's free list after injection.
			d.pendingSlabs = append(d.pendingSlabs, sl)
			if rt != nil {
				rt.shards[d.id].parked += uint64(len(sl.ev))
			}
		} else {
			injectSlab(d, sl)
			s.putSlab(sl)
		}
	}
	s.outDst = s.outDst[:0]
	for _, sl := range s.pendingSlabs {
		injectSlab(s, sl)
		s.putSlab(sl)
	}
	s.pendingSlabs = s.pendingSlabs[:0]
}

// startWorkers makes this run's completion channel and starts one
// dedicated worker per shard; the returned func closes the grant
// channels, which is what stops the workers. Workers live for the
// duration of one RunUntil: window grants and completion acks ride
// unbuffered channels whose send/receive pairs are the happens-before
// edges that hand each engine between its worker and the coordinator.
func (c *Coordinator) startWorkers() (stop func()) {
	c.doneCh = make(chan *Shard)
	for _, s := range c.shards {
		s.grantCh = make(chan struct{})
		go c.work(s, s.grantCh, c.doneCh)
	}
	return func() {
		for _, s := range c.shards {
			close(s.grantCh)
		}
	}
}

// work is shard s's dedicated worker: it runs the shard's granted
// windows. The channels arrive as parameters so the loop never reads
// coordinator fields the next RunUntil will re-make. The blocked charge
// after the done handoff runs after the coordinator may already have
// moved on — which is why worker-side counters are atomics.
func (c *Coordinator) work(s *Shard, grants <-chan struct{}, done chan<- *Shard) {
	mark := time.Now()
	for range grants {
		c.runGrant(s, &mark)
		done <- s
		if c.rt != nil {
			c.rt.workerBlocked(s.id, &mark)
		}
	}
}

// Processed returns the total events executed across all shards. For a
// workload identical to a serial run it equals the serial engine's
// Processed count: sharding moves events between queues but neither
// adds nor removes any.
func (c *Coordinator) Processed() uint64 {
	var n uint64
	for _, s := range c.shards {
		n += s.eng.processed
	}
	return n
}
