package sim

import (
	"sync/atomic"
	"time"
)

// This file is the engine's self-observability layer: the coordinator
// and engines observing their own execution, separate from the
// packet-level trace bus in internal/obs. Two surfaces exist:
//
//   - Run-end snapshots (EnableRuntimeStats / RuntimeStats,
//     Engine.Stats): counters and wall-time accounting answering "what
//     did the parallel protocol actually do" — window grants,
//     null-advance relaxations, per-worker busy/blocked/idle time,
//     calendar-queue churn.
//   - A live progress surface (Monitor): per-shard event counts and
//     clocks published through atomics, so a sampler goroutine can
//     stream progress without ever touching an engine.
//
// Both follow the obs nil-probe contract: disabled (the default) they
// cost one nil check per hook, no time.Now() calls and no allocations.
// The determinism argument for the enabled path: instrumentation only
// ever *reads* simulation state and writes to side counters — window
// bounds, event order, and every simulated byte are computed exactly as
// before. The worker-written counters are atomics read by RuntimeStats
// and the sampler; the coordinator-written ones are plain fields,
// written only between the owning shard's windows (the same discipline
// as the channel-clock state itself).

// ShardStats is the run-end self-observation record of one shard.
type ShardStats struct {
	// Grants counts windows granted to this shard.
	Grants uint64 `json:"grants"`
	// GrantWidth is the summed width of those windows (grant end minus
	// the shard's earliest pending event at grant time).
	GrantWidth time.Duration `json:"grantWidth"`
	// NullAdvances counts relaxations of this shard's send lower bound
	// through an incoming channel — the centralized form of CMB null
	// messages it received.
	NullAdvances uint64 `json:"nullAdvances"`
	// Steals is always zero; the field stays because benchmark/ reads it.
	Steals uint64 `json:"steals"`
	// OutboxSent counts cross-shard deliveries drained from this
	// shard's outbox slabs.
	OutboxSent uint64 `json:"outboxSent"`
	// Parked counts arrivals parked (slab-wise) at this shard because
	// a window was in flight when they were delivered.
	Parked uint64 `json:"parked"`
	// Events counts events executed inside this shard's windows.
	Events uint64 `json:"events"`
	// Busy is the wall time workers spent executing this shard's
	// windows.
	Busy time.Duration `json:"busy"`
}

// WorkerStats is the wall-time account of one worker goroutine. The
// three durations partition the worker's life inside RunUntil: Busy
// (executing a window), Blocked (holding a finished window, waiting for
// the coordinator to take the completion), Idle (waiting for a grant).
type WorkerStats struct {
	Windows uint64        `json:"windows"`
	Busy    time.Duration `json:"busy"`
	Blocked time.Duration `json:"blocked"`
	Idle    time.Duration `json:"idle"`
}

// CoordinatorStats is the run-end runtime snapshot of a sharded run.
type CoordinatorStats struct {
	// Mode names the window protocol: always "channel", the only one.
	Mode string `json:"mode"`
	// RelaxRounds counts Bellman-Ford sweeps over the channel graph;
	// GrantCalls counts grant-dispatch passes. Their ratio is the
	// null-advance overhead of the protocol.
	RelaxRounds uint64 `json:"relaxRounds"`
	GrantCalls  uint64 `json:"grantCalls"`
	// Wall is wall time spent inside RunUntil; CoordBlocked is the
	// fraction the coordinator spent waiting for a window completion.
	Wall         time.Duration `json:"wall"`
	CoordBlocked time.Duration `json:"coordBlocked"`
	PerShard     []ShardStats  `json:"perShard"`
	PerWorker    []WorkerStats `json:"perWorker"`
}

// shardCounters is the internal per-shard collector. The first group is
// coordinator-owned (written only between the shard's windows, on the
// coordinator goroutine); the second is worker-owned and atomic so the
// run-end snapshot — and a live sampler — can read it race-free while a
// trailing window completes.
type shardCounters struct {
	grants       uint64
	grantWidth   time.Duration
	nullAdvances uint64
	outboxSent   uint64
	parked       uint64

	events atomic.Uint64
	busy   atomic.Int64 // ns
}

// workerCounters is the internal per-worker collector (all
// worker-owned, atomic for the same reason as shardCounters).
type workerCounters struct {
	windows atomic.Uint64
	busy    atomic.Int64 // ns
	blocked atomic.Int64 // ns
	idle    atomic.Int64 // ns
}

// runStats is the coordinator's runtime-stats collector, allocated by
// EnableRuntimeStats. A nil *runStats is the disabled layer.
type runStats struct {
	relaxRounds  uint64
	grantCalls   uint64
	wall         time.Duration
	coordBlocked time.Duration
	shards       []shardCounters
	workers      []workerCounters
}

// size allocates the per-shard and per-worker arrays once the shard
// count is known (at RunUntil); repeated runs keep accumulating.
func (rt *runStats) size(n int) {
	if len(rt.shards) != n {
		rt.shards = make([]shardCounters, n)
		rt.workers = make([]workerCounters, n)
	}
}

// EnableRuntimeStats turns on the coordinator's self-observation layer.
// Must be called before the first RunUntil (instrumentation is frozen
// with the rest of the configuration). The cost when enabled is two
// time.Now() calls per window plus counter arithmetic — irrelevant next
// to a window's event execution; when not enabled every hook is a nil
// check.
func (c *Coordinator) EnableRuntimeStats() {
	if c.started {
		panic("sim: EnableRuntimeStats after RunUntil — instrumentation is frozen once the first window has run")
	}
	c.rt = &runStats{}
}

// RuntimeStats snapshots the accumulated runtime statistics. ok is
// false when EnableRuntimeStats was never called. Safe to call between
// RunUntil invocations or after the last one; counters accumulate
// across calls, so successive snapshots are monotone.
func (c *Coordinator) RuntimeStats() (CoordinatorStats, bool) {
	rt := c.rt
	if rt == nil {
		return CoordinatorStats{}, false
	}
	st := CoordinatorStats{
		Mode:         "channel",
		RelaxRounds:  rt.relaxRounds,
		GrantCalls:   rt.grantCalls,
		Wall:         rt.wall,
		CoordBlocked: rt.coordBlocked,
	}
	for i := range rt.shards {
		sc := &rt.shards[i]
		st.PerShard = append(st.PerShard, ShardStats{
			Grants:       sc.grants,
			GrantWidth:   sc.grantWidth,
			NullAdvances: sc.nullAdvances,
			OutboxSent:   sc.outboxSent,
			Parked:       sc.parked,
			Events:       sc.events.Load(),
			Busy:         time.Duration(sc.busy.Load()),
		})
	}
	for i := range rt.workers {
		wc := &rt.workers[i]
		st.PerWorker = append(st.PerWorker, WorkerStats{
			Windows: wc.windows.Load(),
			Busy:    time.Duration(wc.busy.Load()),
			Blocked: time.Duration(wc.blocked.Load()),
			Idle:    time.Duration(wc.idle.Load()),
		})
	}
	return st, true
}

// runGrant executes one granted window of shard s on its worker,
// attributing wall time and events when instrumentation is enabled and
// publishing the shard's progress when a monitor is attached.
func (c *Coordinator) runGrant(s *Shard, mark *time.Time) {
	rt := c.rt
	if rt == nil {
		s.nextAt, s.hasNext = s.eng.runBefore(s.grantEnd)
	} else {
		start := time.Now()
		wc := &rt.workers[s.id]
		wc.idle.Add(int64(start.Sub(*mark)))
		e0 := s.eng.processed
		s.nextAt, s.hasNext = s.eng.runBefore(s.grantEnd)
		end := time.Now()
		d := int64(end.Sub(start))
		wc.windows.Add(1)
		wc.busy.Add(d)
		sc := &rt.shards[s.id]
		sc.events.Add(s.eng.processed - e0)
		sc.busy.Add(d)
		*mark = end
	}
	if s.mon != nil {
		s.mon.publish(s.eng.processed, s.eng.now)
	}
}

// workerBlocked charges the time since mark to worker w's blocked
// account (the doneCh handoff just completed) and advances mark.
func (rt *runStats) workerBlocked(w int, mark *time.Time) {
	now := time.Now()
	rt.workers[w].blocked.Add(int64(now.Sub(*mark)))
	*mark = now
}

// Monitor is the live progress surface: per-shard event counts and
// clocks published through atomics at window boundaries (or every few
// thousand events for a serial engine). A sampler goroutine reads
// snapshots concurrently with the run; it never touches an engine or a
// bus, so sampling cannot perturb the simulation. Attach with
// Coordinator.SetMonitor or Engine.SetMonitor.
type Monitor struct {
	deadline atomic.Int64
	shards   atomic.Pointer[[]*MonitorShard]
}

// MonitorShard is one shard's published progress.
type MonitorShard struct {
	events atomic.Uint64
	now    atomic.Int64
}

func (m *MonitorShard) publish(events uint64, now time.Duration) {
	m.events.Store(events)
	m.now.Store(int64(now))
}

// NewMonitor returns an empty monitor. The per-shard slots are created
// when a coordinator or engine attaches at its next RunUntil.
func NewMonitor() *Monitor { return &Monitor{} }

// attach replaces the published shard slots with n fresh ones and
// returns them. The slice is swapped atomically so a concurrent sampler
// sees either the old run's slots or the new ones, never a mix.
func (m *Monitor) attach(n int) []*MonitorShard {
	s := make([]*MonitorShard, n)
	for i := range s {
		s[i] = &MonitorShard{}
	}
	m.shards.Store(&s)
	return s
}

// ShardProgress is one shard's progress snapshot.
type ShardProgress struct {
	Events uint64
	Now    time.Duration
}

// Progress is a point-in-time view of a monitored run.
type Progress struct {
	// Deadline is the RunUntil deadline of the current run (the ETA
	// target).
	Deadline time.Duration
	// Events is the total published event count across shards.
	Events uint64
	// Frontier is the minimum published shard clock; Lag is the spread
	// between the fastest and slowest shard clocks.
	Frontier time.Duration
	Lag      time.Duration
	Shards   []ShardProgress
}

// Snapshot reads the published progress. Safe to call concurrently
// with the run from any goroutine.
func (m *Monitor) Snapshot() Progress {
	p := Progress{Deadline: time.Duration(m.deadline.Load())}
	sp := m.shards.Load()
	if sp == nil {
		return p
	}
	var minNow, maxNow time.Duration
	for i, s := range *sp {
		e := s.events.Load()
		now := time.Duration(s.now.Load())
		p.Events += e
		p.Shards = append(p.Shards, ShardProgress{Events: e, Now: now})
		if i == 0 || now < minNow {
			minNow = now
		}
		if i == 0 || now > maxNow {
			maxNow = now
		}
	}
	p.Frontier = minNow
	p.Lag = maxNow - minNow
	return p
}

// SetMonitor attaches a progress monitor to the coordinator. Must be
// called before the first RunUntil. Workers publish at window
// boundaries, so the per-event hot path is untouched.
func (c *Coordinator) SetMonitor(m *Monitor) {
	if c.started {
		panic("sim: SetMonitor after RunUntil — instrumentation is frozen once the first window has run")
	}
	c.mon = m
}

// SetMonitor attaches a progress monitor to a serial engine: progress
// is published every monPublishEvery events from Step plus once at
// every RunUntil boundary. SetMonitor(nil) detaches.
func (e *Engine) SetMonitor(m *Monitor) {
	if m == nil {
		e.mon, e.monOwner = nil, nil
		return
	}
	e.monOwner = m
	e.mon = m.attach(1)[0]
}

// monPublishEvery is the serial engine's publication period: rare
// enough that the two atomic stores vanish against thousands of events,
// frequent enough for a sub-second sampler to see motion.
const monPublishEvery = 4096

// QueueStats is the scheduler's self-profile: the calendar queue's
// geometry and churn counters (zero Kind "heap" rows for the reference
// heap, which has no adaptive state to report).
type QueueStats struct {
	// Kind is "calendar" or "heap".
	Kind string `json:"kind"`
	// Buckets and Width are the calendar's current geometry.
	Buckets int           `json:"buckets,omitempty"`
	Width   time.Duration `json:"width,omitempty"`
	// Grows / Shrinks count resize rebuilds in each direction.
	Grows   uint64 `json:"grows,omitempty"`
	Shrinks uint64 `json:"shrinks,omitempty"`
	// Migrations counts events pulled from the overflow heap tier into
	// the bucket window.
	Migrations uint64 `json:"migrations,omitempty"`
}

// EngineStats is a point-in-time self-profile of one engine.
type EngineStats struct {
	Now       time.Duration `json:"now"`
	Processed uint64        `json:"processed"`
	Pending   int           `json:"pending"`
	// HiWater is the maximum pending-event population ever reached;
	// FreeList is the current recycled-record pool size.
	HiWater  int        `json:"hiwater"`
	FreeList int        `json:"freeList"`
	Queue    QueueStats `json:"queue"`
}

// Stats snapshots the engine's self-profile. The churn counters are
// maintained unconditionally: they increment on resize and
// overflow-migration paths, which are rare next to the pops they
// amortize against.
func (e *Engine) Stats() EngineStats {
	st := EngineStats{
		Now:       e.now,
		Processed: e.processed,
		Pending:   e.q.len(),
		HiWater:   e.hiwater,
		FreeList:  len(e.free),
	}
	switch q := e.q.(type) {
	case *calQueue:
		st.Queue = QueueStats{
			Kind:       "calendar",
			Buckets:    len(q.buckets),
			Width:      q.width,
			Grows:      q.grows,
			Shrinks:    q.shrinks,
			Migrations: q.migrations,
		}
	case *heapQueue:
		st.Queue = QueueStats{Kind: "heap"}
	}
	return st
}
