// Package runtime surfaces the simulator's self-observation: the
// coordinator/engine/pool counters collected by internal/sim and
// internal/pkt, assembled into a "name\tvalue" text dump (sorted, one
// integer per line) and into a human report explaining a run —
// shard imbalance, null-advance overhead, the event queue's geometry,
// longest chain walk and overflow migrations.
//
// It is deliberately separate from the packet-level trace bus
// (internal/obs): the trace records what the *simulated network* did,
// this package records what the *simulator* did. Nothing in this
// package reads the trace, and nothing in the trace comes from here.
package runtime

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"pmsb/internal/pkt"
	"pmsb/internal/sim"
)

// Collector accumulates runtime observations across runs. The
// experiment layer calls ObserveCoordinator / ObserveSerial at the end
// of each run it executes; observations of the same shape merge
// (counters sum, high-water marks max), so a sweep of many runs keeps
// the collector bounded. Collectors are goroutine-safe: parallel
// experiment runners share one.
type Collector struct {
	mu       sync.Mutex
	runs     int
	coord    sim.CoordinatorStats
	hasCoord bool
	engines  map[int]sim.EngineStats
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{engines: make(map[int]sim.EngineStats)}
}

func (c *Collector) mergeEngine(shard int, st sim.EngineStats) {
	prev, ok := c.engines[shard]
	if !ok {
		c.engines[shard] = st
		return
	}
	prev.Processed += st.Processed
	if st.Now > prev.Now {
		prev.Now = st.Now
	}
	if st.Pending > prev.Pending {
		prev.Pending = st.Pending
	}
	if st.HiWater > prev.HiWater {
		prev.HiWater = st.HiWater
	}
	if st.FreeList > prev.FreeList {
		prev.FreeList = st.FreeList
	}
	prev.Queue.Kind = st.Queue.Kind
	if st.Queue.Buckets > prev.Queue.Buckets {
		prev.Queue.Buckets = st.Queue.Buckets
	}
	prev.Queue.Width = st.Queue.Width
	prev.Queue.Migrations += st.Queue.Migrations
	if st.Queue.WalkMax > prev.Queue.WalkMax {
		prev.Queue.WalkMax = st.Queue.WalkMax
	}
	c.engines[shard] = prev
}

// ObserveCoordinator folds a sharded run into the collector: the
// coordinator's runtime stats (when EnableRuntimeStats was on) plus
// every shard engine's self-profile. Counts as one run.
func (c *Collector) ObserveCoordinator(coord *sim.Coordinator) {
	st, ok := coord.RuntimeStats()
	shards := coord.Shards()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.runs++
	for _, s := range shards {
		c.mergeEngine(s.ID(), s.Engine().Stats())
	}
	if !ok {
		return
	}
	if !c.hasCoord || len(c.coord.PerShard) != len(st.PerShard) {
		c.coord, c.hasCoord = st, true
		return
	}
	// Same shape: counters and durations sum (RuntimeStats itself
	// accumulates across RunUntil calls on one coordinator, so summing
	// across *distinct* coordinators extends the same semantics).
	c.coord.Mode = st.Mode
	c.coord.RelaxRounds += st.RelaxRounds
	c.coord.GrantCalls += st.GrantCalls
	c.coord.Wall += st.Wall
	c.coord.CoordBlocked += st.CoordBlocked
	for i := range st.PerShard {
		a, b := &c.coord.PerShard[i], st.PerShard[i]
		a.Grants += b.Grants
		a.GrantWidth += b.GrantWidth
		a.NullAdvances += b.NullAdvances
		a.OutboxSent += b.OutboxSent
		a.Parked += b.Parked
		a.Events += b.Events
		a.Busy += b.Busy
	}
	for i := range st.PerWorker {
		a, b := &c.coord.PerWorker[i], st.PerWorker[i]
		a.Windows += b.Windows
		a.Busy += b.Busy
		a.Blocked += b.Blocked
		a.Idle += b.Idle
	}
}

// ObserveSerial folds a serial (unsharded) run into the collector:
// the engine's self-profile under shard 0, counted as one run.
func (c *Collector) ObserveSerial(eng *sim.Engine) {
	st := eng.Stats()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.runs++
	c.mergeEngine(0, st)
}

// Snapshot is a point-in-time copy of everything the collector has
// accumulated, plus the packet pool's profile read at snapshot time.
type Snapshot struct {
	Runs    int                     `json:"runs"`
	Coord   *sim.CoordinatorStats   `json:"coord,omitempty"`
	Engines map[int]sim.EngineStats `json:"engines"`
	Pool    pkt.PoolStats           `json:"pool"`
}

// Snapshot copies the collector's state.
func (c *Collector) Snapshot() Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Snapshot{Runs: c.runs, Engines: make(map[int]sim.EngineStats, len(c.engines))}
	for k, v := range c.engines {
		s.Engines[k] = v
	}
	if c.hasCoord {
		cc := c.coord
		cc.PerShard = append([]sim.ShardStats(nil), c.coord.PerShard...)
		cc.PerWorker = append([]sim.WorkerStats(nil), c.coord.PerWorker...)
		s.Coord = &cc
	}
	s.Pool = pkt.ReadPoolStats()
	return s
}

// Values flattens the snapshot into named integer metrics, the unit the
// dump and the report both consume. Durations are nanoseconds under
// "_ns" names; the coordinator mode becomes a "<name>.<value>" indicator
// row (1), keeping every value numeric.
func (s Snapshot) Values() map[string]int64 {
	v := map[string]int64{
		"runtime.runs": int64(s.Runs),
	}
	if c := s.Coord; c != nil {
		v["runtime.coord.mode."+c.Mode] = 1
		v["runtime.coord.shards"] = int64(len(c.PerShard))
		v["runtime.coord.relax_rounds"] = int64(c.RelaxRounds)
		v["runtime.coord.grant_calls"] = int64(c.GrantCalls)
		v["runtime.coord.wall_ns"] = int64(c.Wall)
		v["runtime.coord.blocked_ns"] = int64(c.CoordBlocked)
		for i, sh := range c.PerShard {
			p := fmt.Sprintf("runtime.shard.%d.", i)
			v[p+"grants"] = int64(sh.Grants)
			v[p+"grant_width_ns"] = int64(sh.GrantWidth)
			v[p+"null_advances"] = int64(sh.NullAdvances)
			v[p+"outbox_sent"] = int64(sh.OutboxSent)
			v[p+"parked"] = int64(sh.Parked)
			v[p+"events"] = int64(sh.Events)
			v[p+"busy_ns"] = int64(sh.Busy)
		}
		for i, w := range c.PerWorker {
			p := fmt.Sprintf("runtime.worker.%d.", i)
			v[p+"windows"] = int64(w.Windows)
			v[p+"busy_ns"] = int64(w.Busy)
			v[p+"blocked_ns"] = int64(w.Blocked)
			v[p+"idle_ns"] = int64(w.Idle)
		}
	}
	for i, e := range s.Engines {
		p := fmt.Sprintf("runtime.engine.%d.", i)
		v[p+"processed"] = int64(e.Processed)
		v[p+"pending"] = int64(e.Pending)
		v[p+"hiwater"] = int64(e.HiWater)
		v[p+"freelist"] = int64(e.FreeList)
		v[p+"queue.buckets"] = int64(e.Queue.Buckets)
		v[p+"queue.width_ns"] = int64(e.Queue.Width)
		v[p+"queue.migrations"] = int64(e.Queue.Migrations)
		v[p+"queue.walk_max"] = int64(e.Queue.WalkMax)
	}
	v["runtime.pool.gets"] = int64(s.Pool.Gets)
	v["runtime.pool.releases"] = int64(s.Pool.Releases)
	v["runtime.pool.inuse"] = s.Pool.InUse
	v["runtime.pool.inuse_hiwater"] = s.Pool.HiWater
	return v
}

// WriteTo dumps the snapshot as sorted "name\tvalue" lines (the
// io.WriterTo contract); ParseDump, and so pmsbstat -runtime, reads
// them back.
func (s Snapshot) WriteTo(w io.Writer) (int64, error) {
	vals := s.Values()
	names := make([]string, 0, len(vals))
	for n := range vals {
		names = append(names, n)
	}
	sort.Strings(names)
	var total int64
	for _, n := range names {
		n, err := fmt.Fprintf(w, "%s\t%d\n", n, vals[n])
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// ParseDump reads a "name\tvalue" dump (as written by Snapshot.WriteTo)
// back into a value map. Every line must be a non-empty name, a tab and
// a base-10 integer; any other line is an error naming its line number,
// so a damaged or foreign file is refused rather than half-reported.
func ParseDump(r io.Reader) (map[string]int64, error) {
	vals := make(map[string]int64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for line := 1; sc.Scan(); line++ {
		name, val, ok := strings.Cut(sc.Text(), "\t")
		if !ok || name == "" {
			return nil, fmt.Errorf("runtime: parse dump: line %d: want name<TAB>integer, got %q", line, sc.Text())
		}
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("runtime: parse dump: line %d: %s: value %q is not an integer", line, name, val)
		}
		vals[name] = n
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("runtime: parse dump: %w", err)
	}
	return vals, nil
}

// dur renders a nanosecond metric as a duration.
func dur(ns int64) time.Duration { return time.Duration(ns) }
