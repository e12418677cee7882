package sim

import (
	"testing"
	"time"
)

// runInstrumentedRing is runShardedRing with the runtime-introspection
// surface attached: runtime stats enabled, a monitor published, and the
// deadline split into two RunUntil calls so accumulation across calls
// is exercised.
func runInstrumentedRing(n, tokens, hops int, linkDelay, localStep time.Duration,
	mid, deadline time.Duration) ([][]relayRec, *Coordinator, *Monitor) {
	coord := NewCoordinator()
	coord.EnableRuntimeStats()
	mon := NewMonitor()
	coord.SetMonitor(mon)
	shards := make([]*Shard, n)
	for i := range shards {
		shards[i] = coord.NewShard()
	}
	bounds := make([]*Boundary, n)
	for i := range bounds {
		bounds[i] = coord.Boundary(shards[i], shards[(i+1)%n], linkDelay)
	}
	logs := make([][]relayRec, n)
	var deliver func(node, hop int)
	deliver = func(node, hop int) {
		eng := shards[node].Engine()
		logs[node] = append(logs[node], relayRec{At: eng.Now(), Hop: hop})
		if hop >= hops {
			return
		}
		next := (node + 1) % n
		eng.Schedule(localStep, func() {
			eng.Schedule(localStep, func() {
				bounds[node].Send(func(any) { deliver(next, hop+1) }, nil)
			})
		})
	}
	for t := 0; t < tokens; t++ {
		start := (t * (n / tokens)) % n
		t := t
		shards[start].Engine().ScheduleAt(0, func() { deliver(start, t) })
	}
	coord.RunUntil(mid)
	coord.RunUntil(deadline)
	return logs, coord, mon
}

// shardTotals sums the per-shard event counters of a stats snapshot.
func shardTotals(st CoordinatorStats) (events, grants uint64) {
	for _, s := range st.PerShard {
		events += s.Events
		grants += s.Grants
	}
	return
}

// Runtime stats must (a) not perturb results — the instrumented sharded
// ring still matches the uninstrumented serial run — and (b) report
// internally consistent, monotonically accumulated counters.
func TestRuntimeStatsConsistent(t *testing.T) {
	const (
		n         = 4
		tokens    = 4
		hops      = 120
		linkDelay = 7 * time.Microsecond
		localStep = 3 * time.Microsecond
		mid       = 4 * time.Millisecond
		deadline  = 8 * time.Millisecond
	)
	serial := runSerialRing(n, tokens, hops, linkDelay, localStep, deadline)
	t.Run(protocol, func(t *testing.T) {
		logs, coord, mon := runInstrumentedRing(n, tokens, hops, linkDelay, localStep,
			mid, deadline)
		for i := range serial {
			if len(serial[i]) != len(logs[i]) {
				t.Fatalf("node %d: instrumented run diverged (serial %d deliveries, got %d)",
					i, len(serial[i]), len(logs[i]))
			}
		}

		st, ok := coord.RuntimeStats()
		if !ok {
			t.Fatal("RuntimeStats not available after EnableRuntimeStats")
		}
		if st.Mode != protocol {
			t.Fatalf("stats identify run as mode=%s, want %s", st.Mode, protocol)
		}
		if len(st.PerShard) != n || len(st.PerWorker) != n {
			t.Fatalf("got %d shard / %d worker stats, want %d/%d",
				len(st.PerShard), len(st.PerWorker), n, n)
		}
		events, grants := shardTotals(st)
		if events != coord.Processed() {
			t.Fatalf("per-shard events sum to %d, coordinator processed %d", events, coord.Processed())
		}
		if grants == 0 || st.GrantCalls == 0 {
			t.Fatalf("no windows recorded (grants=%d grantCalls=%d)", grants, st.GrantCalls)
		}
		if st.Wall <= 0 {
			t.Fatalf("wall time not recorded: %v", st.Wall)
		}
		if st.CoordBlocked < 0 || st.CoordBlocked > st.Wall {
			t.Fatalf("coordinator blocked %v outside [0, wall=%v]", st.CoordBlocked, st.Wall)
		}
		for i, w := range st.PerWorker {
			if w.Busy < 0 || w.Blocked < 0 || w.Idle < 0 {
				t.Fatalf("worker %d has negative time component: %+v", i, w)
			}
			// Every shard's windows run on its own dedicated worker.
			if w.Windows != st.PerShard[i].Grants {
				t.Fatalf("worker %d ran %d windows, its shard was granted %d", i, w.Windows, st.PerShard[i].Grants)
			}
		}

		p := mon.Snapshot()
		if p.Events != coord.Processed() {
			t.Fatalf("monitor published %d events, coordinator processed %d", p.Events, coord.Processed())
		}
		if p.Frontier != deadline || p.Lag != 0 {
			t.Fatalf("monitor frontier=%v lag=%v at run end, want %v/0", p.Frontier, p.Lag, deadline)
		}
		if p.Deadline != deadline {
			t.Fatalf("monitor deadline %v, want %v", p.Deadline, deadline)
		}
	})
}

// Successive RunUntil calls accumulate: no counter or duration may
// decrease between snapshots.
func TestRuntimeStatsMonotonic(t *testing.T) {
	t.Run(protocol, func(t *testing.T) {
		coord := NewCoordinator()
		coord.EnableRuntimeStats()
		a := coord.NewShard()
		b := coord.NewShard()
		bounds := [2]*Boundary{
			coord.Boundary(a, b, 5*time.Microsecond),
			coord.Boundary(b, a, 5*time.Microsecond),
		}
		shards := [2]*Shard{a, b}
		var bounce func(node, hop int)
		bounce = func(node, hop int) {
			if hop >= 400 {
				return
			}
			shards[node].Engine().Schedule(time.Microsecond, func() {
				bounds[node].Send(func(any) { bounce(1-node, hop+1) }, nil)
			})
		}
		a.Engine().ScheduleAt(0, func() { bounce(0, 0) })

		var prev CoordinatorStats
		for i, deadline := range []time.Duration{2 * time.Millisecond, 4 * time.Millisecond, 6 * time.Millisecond} {
			coord.RunUntil(deadline)
			st, ok := coord.RuntimeStats()
			if !ok {
				t.Fatal("RuntimeStats not available")
			}
			if i > 0 {
				if st.Wall < prev.Wall || st.RelaxRounds < prev.RelaxRounds || st.GrantCalls < prev.GrantCalls {
					t.Fatalf("coordinator counters regressed: %+v -> %+v", prev, st)
				}
				for j := range st.PerShard {
					p, c := prev.PerShard[j], st.PerShard[j]
					if c.Events < p.Events || c.Grants < p.Grants || c.Busy < p.Busy ||
						c.NullAdvances < p.NullAdvances || c.OutboxSent < p.OutboxSent {
						t.Fatalf("shard %d counters regressed: %+v -> %+v", j, p, c)
					}
				}
				for j := range st.PerWorker {
					p, c := prev.PerWorker[j], st.PerWorker[j]
					if c.Windows < p.Windows || c.Busy < p.Busy || c.Blocked < p.Blocked || c.Idle < p.Idle {
						t.Fatalf("worker %d time accounting regressed: %+v -> %+v", j, p, c)
					}
				}
			}
			prev = st
		}
	})
}

// Without EnableRuntimeStats the coordinator reports no stats, and a
// degenerate (single-shard) instrumented coordinator still accounts its
// events.
func TestRuntimeStatsAvailability(t *testing.T) {
	plain := NewCoordinator()
	s := plain.NewShard()
	s.Engine().Schedule(time.Microsecond, func() {})
	plain.RunUntil(time.Millisecond)
	if _, ok := plain.RuntimeStats(); ok {
		t.Fatal("RuntimeStats available without EnableRuntimeStats")
	}

	inst := NewCoordinator()
	inst.EnableRuntimeStats()
	d := inst.NewShard()
	n := 0
	var tick func()
	tick = func() {
		if n++; n < 100 {
			d.Engine().Schedule(time.Microsecond, tick)
		}
	}
	d.Engine().ScheduleAt(0, tick)
	inst.RunUntil(time.Millisecond)
	st, ok := inst.RuntimeStats()
	if !ok {
		t.Fatal("RuntimeStats not available on degenerate coordinator")
	}
	events, _ := shardTotals(st)
	if events != inst.Processed() || events == 0 {
		t.Fatalf("degenerate run accounted %d events, processed %d", events, inst.Processed())
	}
}

// EnableRuntimeStats and SetMonitor are construction-time switches: a
// coordinator that has run must reject them.
func TestRuntimeConfigFrozenAfterRun(t *testing.T) {
	coord := NewCoordinator()
	s := coord.NewShard()
	s.Engine().Schedule(time.Microsecond, func() {})
	coord.RunUntil(time.Millisecond)
	for name, fn := range map[string]func(){
		"EnableRuntimeStats": func() { coord.EnableRuntimeStats() },
		"SetMonitor":         func() { coord.SetMonitor(NewMonitor()) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s after RunUntil did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// A serial engine publishes to an attached monitor, and the published
// snapshot matches the engine's own accounting.
func TestMonitorSerialEngine(t *testing.T) {
	eng := NewEngine()
	mon := NewMonitor()
	eng.SetMonitor(mon)
	n := 0
	var tick func()
	tick = func() {
		if n++; n < 2*monPublishEvery+10 {
			eng.Schedule(time.Nanosecond, tick)
		}
	}
	eng.ScheduleAt(0, tick)
	eng.RunUntil(time.Millisecond)
	p := mon.Snapshot()
	if p.Events != eng.Processed() {
		t.Fatalf("monitor shows %d events, engine processed %d", p.Events, eng.Processed())
	}
	if p.Frontier != time.Millisecond {
		t.Fatalf("monitor frontier %v, want the deadline", p.Frontier)
	}
	if len(p.Shards) != 1 {
		t.Fatalf("serial run published %d shard slots, want 1", len(p.Shards))
	}
	// Detach: the engine must stop publishing.
	eng.SetMonitor(nil)
	before := mon.Snapshot().Events
	n = 0
	eng.RunUntil(2 * time.Millisecond)
	if got := mon.Snapshot().Events; got != before {
		t.Fatalf("detached monitor still advanced: %d -> %d", before, got)
	}
}

// Engine.Stats reports the live self-profile of the scheduler.
func TestEngineStats(t *testing.T) {
	eng := NewEngine()
	for i := 0; i < 500; i++ {
		eng.Schedule(time.Duration(i)*time.Microsecond, func() {})
	}
	eng.RunUntil(time.Millisecond)
	st := eng.Stats()
	if st.Processed != eng.Processed() || st.Now != time.Millisecond {
		t.Fatalf("stats disagree with engine: %+v", st)
	}
	if st.Queue.Kind != "calendar" || st.Queue.Buckets != calBuckets || st.Queue.Width != calWidth {
		t.Fatalf("default engine reports queue %+v, want the calendar's geometry", st.Queue)
	}
	if st.HiWater <= 0 {
		t.Fatalf("pending high-water not tracked: %+v", st)
	}
}

// The disabled introspection path must stay allocation-free on the
// engine hot loop: no monitor, no runtime stats — Step costs nothing
// extra.
func TestStepZeroAllocWithoutIntrospection(t *testing.T) {
	e := NewEngine()
	nop := func(any) {}
	for i := 0; i < 256; i++ {
		e.ScheduleCall(time.Duration(i)*time.Nanosecond, nop, nil)
	}
	e.Run()
	avg := testing.AllocsPerRun(1000, func() {
		e.ScheduleCall(time.Nanosecond, nop, e)
		e.Step()
	})
	if avg != 0 {
		t.Fatalf("Step allocates %.2f/op with introspection disabled, want 0", avg)
	}
}

// The monitored engine path also stays allocation-free: publishing is a
// countdown and two atomic stores.
func TestStepZeroAllocWithMonitor(t *testing.T) {
	e := NewEngine()
	e.SetMonitor(NewMonitor())
	nop := func(any) {}
	for i := 0; i < 256; i++ {
		e.ScheduleCall(time.Duration(i)*time.Nanosecond, nop, nil)
	}
	e.Run()
	avg := testing.AllocsPerRun(1000, func() {
		e.ScheduleCall(time.Nanosecond, nop, e)
		e.Step()
	})
	if avg != 0 {
		t.Fatalf("Step allocates %.2f/op with a monitor attached, want 0", avg)
	}
}
