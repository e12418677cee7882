package experiment

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"
)

// workerPool bounds the total simulation concurrency of one RunMany
// invocation. Experiment-level fan-out, per-seed fan-out inside a
// single experiment, and the shard workers of sharded runs all draw
// from the same token budget, so jobs=N never oversubscribes N workers
// no matter how the work nests. A run using S shards costs S tokens.
type workerPool struct {
	mu   sync.Mutex
	cond *sync.Cond
	idle int
	size int
}

func newWorkerPool(jobs int) *workerPool {
	p := &workerPool{idle: jobs, size: jobs}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// acquireN blocks until n tokens are free simultaneously and takes them
// all atomically. All-or-nothing: a waiter never sits on a partial set,
// so concurrent multi-token acquisitions cannot deadlock against each
// other. Callers ask for at most the pool size (tokenCost caps it), so
// one request can always eventually be satisfied.
func (p *workerPool) acquireN(n int) {
	p.mu.Lock()
	for p.idle < n {
		p.cond.Wait()
	}
	p.idle -= n
	p.mu.Unlock()
}

func (p *workerPool) releaseN(n int) {
	p.mu.Lock()
	p.idle += n
	p.mu.Unlock()
	p.cond.Broadcast()
}

// tryAcquireN takes n tokens only when all of them are idle right now.
// Nested fan-out uses it so a goroutine that already holds tokens can
// never deadlock waiting for more.
func (p *workerPool) tryAcquireN(n int) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.idle < n {
		return false
	}
	p.idle -= n
	return true
}

// eachRepeat runs fn(0), fn(1), ..., fn(n-1), fanning iterations across
// idle RunMany workers when a pool is attached to the options (serial
// otherwise). fn must write its result into a per-index slot so callers
// reassemble in index order; the calling goroutine always contributes,
// so progress never depends on token availability. Used by the repeat
// loops of the randomized sweeps to run consecutive seeds in parallel.
func (o Options) eachRepeat(n int, fn func(r int)) {
	o.acct.repeated(n)
	if o.pool == nil || n < 2 {
		for r := 0; r < n; r++ {
			fn(r)
		}
		return
	}
	cost := o.tokenCost()
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		if r == n-1 || !o.pool.tryAcquireN(cost) {
			fn(r)
			continue
		}
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			defer o.pool.releaseN(cost)
			fn(r)
		}(r)
	}
	wg.Wait()
}

// ExperimentReport is one experiment's row in a run manifest.
type ExperimentReport struct {
	// ID is the experiment ID.
	ID string `json:"id"`
	// WallMS is the experiment's wall-clock time in milliseconds.
	WallMS float64 `json:"wall_ms"`
	// Events counts the simulator events processed by the experiment's
	// engines, packet and fluid alike. A result served from the shared
	// FCT-sweep cache (Cached) reports 0: the sweep's events are
	// charged once, to the experiment that computed it.
	Events int64 `json:"events"`
	// Engine names the engine(s) the experiment's simulations actually
	// ran on — "packet", "flow", "packet+flow", or "" when it ran none
	// (table1) — and Shards the widest shard count any of them used
	// (1 = serial). Options.Shards is a request; these say what
	// happened, so an option that did not apply shows.
	Engine string `json:"engine"`
	Shards int    `json:"shards"`
	// Repeats is the most seeds a randomized sweep of the experiment
	// pooled; 0 when it ran none.
	Repeats int `json:"repeats,omitempty"`
	// Cached marks a result projected from a sweep an earlier
	// experiment of this process already simulated; Engine and Shards
	// then describe that sweep.
	Cached bool `json:"cached,omitempty"`
	// EngineMS sums the wall time of the experiment's simulations per
	// engine ("packet", "flow"), in milliseconds, so calibrate's two
	// entries are what the fluid engine buys. A cached result adds none.
	EngineMS map[string]float64 `json:"engine_ms,omitempty"`
}

// ledger is an ExperimentReport in the making: the two run helpers
// credit each finished simulation to it. Safe for the
// fan-out goroutines of eachRepeat; a nil ledger (a Spec.Run outside
// RunMany) discards everything.
type ledger struct {
	mu  sync.Mutex
	row ExperimentReport
}

// credit records one finished simulation that took wall on engine.
func (l *ledger) credit(engine string, shards int, events uint64, wall time.Duration) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if wall > 0 {
		if l.row.EngineMS == nil {
			l.row.EngineMS = map[string]float64{}
		}
		l.row.EngineMS[engine] += float64(wall) / float64(time.Millisecond)
	}
	l.row.Events += int64(events)
	l.row.Shards = max(l.row.Shards, shards)
	switch {
	case l.row.Engine == "" || engine == "":
		l.row.Engine += engine
	case l.row.Engine != engine:
		l.row.Engine = "packet+flow"
	}
}

// repeated records a sweep that pooled n seeds.
func (l *ledger) repeated(n int) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.row.Repeats = max(l.row.Repeats, n)
}

// absorb folds the account of a shared computation into l. hit says
// the computation ran for an earlier caller: l then records what it
// ran on but is not charged its events or wall time again.
func (l *ledger) absorb(from *ledger, hit bool) {
	if l == nil {
		return
	}
	events := uint64(from.row.Events)
	if hit {
		events = 0
	} else {
		for engine, ms := range from.row.EngineMS {
			l.credit(engine, 0, 0, time.Duration(ms*float64(time.Millisecond)))
		}
	}
	l.credit(from.row.Engine, from.row.Shards, events, 0)
	l.repeated(from.row.Repeats)
	l.mu.Lock()
	l.row.Cached = l.row.Cached || hit
	l.mu.Unlock()
}

// Manifest summarizes one RunMany invocation: the worker count, total
// wall time and the per-experiment cost breakdown in registration
// order. Wall times are inherently nondeterministic; everything else
// about a run is byte-identical at any job count.
type Manifest struct {
	Jobs        int                `json:"jobs"`
	WallMS      float64            `json:"wall_ms"`
	TotalEvents int64              `json:"total_events"`
	Experiments []ExperimentReport `json:"experiments"`
}

// Summary renders the manifest as a '#'-prefixed block that can trail
// TSV output without disturbing its tabular payload.
func (m *Manifest) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# summary: %d experiments, jobs=%d, wall time %v, %d events\n",
		len(m.Experiments), m.Jobs,
		(time.Duration(m.WallMS * float64(time.Millisecond))).Round(time.Millisecond),
		m.TotalEvents)
	b.WriteString("# experiment\twall_ms\tevents\tengine\tshards\n")
	for _, e := range m.Experiments {
		engine, cached := e.Engine, ""
		if engine == "" {
			engine = "-"
		}
		if e.Cached {
			cached = "\tcached"
		}
		split := ""
		if len(e.EngineMS) > 1 {
			split = fmt.Sprintf("\tpacket %.1f ms, flow %.1f ms", e.EngineMS["packet"], e.EngineMS["flow"])
		}
		fmt.Fprintf(&b, "# %s\t%.1f\t%d\t%s\t%d%s%s\n", e.ID, e.WallMS, e.Events, engine, e.Shards, split, cached)
	}
	return b.String()
}

// RunMany executes specs with at most jobs worker tokens in use at once
// (jobs < 1 means runtime.NumCPU()). An experiment costs one token, one
// that declares MaxShards the shards it runs on (opt.Shards capped at
// its MaxShards and at jobs), so -jobs x -shards never oversubscribes
// the machine however the work nests. Every engine is private and
// deterministic, so results are byte-identical to a serial run and
// come back in the order specs were given. On failure the returned results hold the completed prefix
// (every spec before the earliest failing one, in order) and the error
// names that spec — exactly what a serial loop would have produced; the
// manifest is nil in that case.
func RunMany(specs []Spec, opt Options, jobs int) ([]*Result, *Manifest, error) {
	if jobs < 1 {
		jobs = runtime.NumCPU()
	}
	type outcome struct {
		res  *Result
		err  error
		wall time.Duration
		acct ledger
	}
	pool := newWorkerPool(jobs)
	outcomes := make([]outcome, len(specs))
	start := time.Now()
	var wg sync.WaitGroup
	for i := range specs {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := opt
			o.pool = pool
			// A spec runs on at most MaxShards shards, one when it does
			// not shard, so its simulations — and the per-seed fan-out
			// of eachRepeat — each hold that many tokens (tokenCost),
			// taken atomically (see acquireN) before simulating.
			o.Shards = max(1, min(o.shards(), specs[i].MaxShards))
			cost := o.tokenCost()
			pool.acquireN(cost)
			defer pool.releaseN(cost)
			oc := &outcomes[i]
			o.acct = &oc.acct
			t0 := time.Now()
			oc.res, oc.err = specs[i].Run(o)
			oc.wall = time.Since(t0)
		}()
	}
	wg.Wait()

	results := make([]*Result, 0, len(specs))
	m := &Manifest{Jobs: jobs, WallMS: float64(time.Since(start)) / float64(time.Millisecond)}
	for i := range outcomes {
		oc := &outcomes[i]
		if oc.err != nil {
			return results, nil, fmt.Errorf("%s: %w", specs[i].ID, oc.err)
		}
		results = append(results, oc.res)
		row := oc.acct.row
		row.ID, row.WallMS = specs[i].ID, float64(oc.wall)/float64(time.Millisecond)
		m.Experiments = append(m.Experiments, row)
		m.TotalEvents += row.Events
	}
	return results, m, nil
}
