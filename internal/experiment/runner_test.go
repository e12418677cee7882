package experiment

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pmsb/internal/obs"
	"pmsb/internal/sim"
)

// syntheticSpec builds a spec whose Run spins a tiny engine so the
// manifest's event accounting has something real to count. The result
// row records the options seed so callers can verify the spec saw the
// options RunMany handed it.
func syntheticSpec(id string, events int) Spec {
	return Spec{
		ID:    id,
		Title: "synthetic " + id,
		Run: func(opt Options) (*Result, error) {
			eng := sim.NewEngine()
			for i := 0; i < events; i++ {
				eng.Schedule(time.Duration(i)*time.Microsecond, func() {})
			}
			eng.Run()
			opt.acct.credit("packet", 1, eng.Processed())
			r := &Result{ID: id, Title: "synthetic " + id, Headers: []string{"seed"}}
			r.AddRow(fmt.Sprintf("%d", opt.seed()))
			return r, nil
		},
	}
}

func TestRunManyPreservesOrder(t *testing.T) {
	var specs []Spec
	for i := 0; i < 12; i++ {
		// Vary the workload so completion order differs from
		// registration order under parallelism.
		specs = append(specs, syntheticSpec(fmt.Sprintf("s%02d", i), 50*(12-i)))
	}
	for _, jobs := range []int{1, 4, 16} {
		results, m, err := RunMany(specs, Options{Seed: 7}, jobs)
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		if len(results) != len(specs) {
			t.Fatalf("jobs=%d: %d results, want %d", jobs, len(results), len(specs))
		}
		for i, r := range results {
			if r.ID != specs[i].ID {
				t.Fatalf("jobs=%d: result %d is %s, want %s", jobs, i, r.ID, specs[i].ID)
			}
			if r.Rows[0][0] != "7" {
				t.Fatalf("jobs=%d: spec %s saw seed %s, want 7", jobs, r.ID, r.Rows[0][0])
			}
			if m.Experiments[i].ID != specs[i].ID {
				t.Fatalf("jobs=%d: manifest row %d is %s, want %s", jobs, i, m.Experiments[i].ID, specs[i].ID)
			}
		}
	}
}

func TestRunManyManifestCountsEvents(t *testing.T) {
	specs := []Spec{syntheticSpec("a", 100), syntheticSpec("b", 40)}
	// Real experiments for the rows that used to lie: a fluid run, and
	// three experiments sharing one FCT sweep. The seed is this test's
	// own so no other test has put the sweep in the cache first.
	for _, id := range []string{"flow-scale", "fct-dwrr", "fig19", "fig20"} {
		spec, err := Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, spec)
	}
	_, m, err := RunMany(specs, Options{Quick: true, Seed: 3}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if m.Jobs != 2 {
		t.Fatalf("manifest jobs = %d, want 2", m.Jobs)
	}
	a, b, fluid, sweep := m.Experiments[0], m.Experiments[1], m.Experiments[2], m.Experiments[3:]
	if a.Events != 100 || b.Events != 40 {
		t.Fatalf("per-experiment events = %d, %d; want 100, 40", a.Events, b.Events)
	}
	if a.Engine != "packet" || a.Shards != 1 || a.Cached {
		t.Fatalf("hand-wired serial run reported as %+v", a)
	}
	if fluid.Events == 0 || fluid.Engine != "flow" || fluid.Shards != 1 {
		t.Fatalf("fluid run not credited: %+v", fluid)
	}
	// Whichever of the three gets the worker token first simulates the
	// sweep and is charged for it; the other two are cache hits.
	var computed int
	total := a.Events + b.Events + fluid.Events
	for _, e := range sweep {
		total += e.Events
		if e.Engine != "packet" || e.Shards != 1 {
			t.Fatalf("%s: engine %q shards %d, want the sweep's packet/1", e.ID, e.Engine, e.Shards)
		}
		switch {
		case !e.Cached && e.Events > 0:
			computed++
		case !e.Cached || e.Events != 0:
			t.Fatalf("%s: cached=%v with %d events", e.ID, e.Cached, e.Events)
		}
	}
	if computed != 1 {
		t.Fatalf("%d of fct-dwrr/fig19/fig20 computed the sweep, want 1", computed)
	}
	if m.TotalEvents != total {
		t.Fatalf("total events = %d, want the rows' sum %d", m.TotalEvents, total)
	}
	sum := m.Summary()
	for _, want := range []string{
		"# summary: 6 experiments, jobs=2", "# a\t", "# b\t", fmt.Sprintf("%d events", total),
		"\tflow\t1\n", "\tpacket\t1\tcached\n",
	} {
		if !strings.Contains(sum, want) {
			t.Fatalf("summary missing %q:\n%s", want, sum)
		}
	}
}

// An error must surface exactly as a serial loop would have reported
// it: the completed prefix of results, and the earliest failing spec's
// ID wrapping the cause — even when a later spec also fails.
func TestRunManyErrorMatchesSerialSemantics(t *testing.T) {
	boom := errors.New("boom")
	fail := func(id string) Spec {
		return Spec{ID: id, Title: id, Run: func(Options) (*Result, error) { return nil, boom }}
	}
	specs := []Spec{syntheticSpec("ok1", 10), syntheticSpec("ok2", 10), fail("bad1"), fail("bad2")}
	results, m, err := RunMany(specs, Options{}, 4)
	if err == nil {
		t.Fatal("expected error")
	}
	if !errors.Is(err, boom) {
		t.Fatalf("error does not wrap cause: %v", err)
	}
	if !strings.HasPrefix(err.Error(), "bad1:") {
		t.Fatalf("error must name the earliest failing spec: %v", err)
	}
	if len(results) != 2 || results[0].ID != "ok1" || results[1].ID != "ok2" {
		t.Fatalf("results must be the completed prefix, got %d", len(results))
	}
	if m != nil {
		t.Fatal("manifest must be nil on error")
	}
}

func TestRunManyDefaultJobs(t *testing.T) {
	_, m, err := RunMany([]Spec{syntheticSpec("a", 1)}, Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Jobs != runtime.NumCPU() {
		t.Fatalf("jobs<1 resolved to %d, want NumCPU %d", m.Jobs, runtime.NumCPU())
	}
}

// A sharded experiment occupies one worker token per shard engine it
// will spin up, so -jobs x -shards can never oversubscribe the machine:
// the weighted concurrency across running specs stays within the pool,
// and a single spec wider than the pool is capped at the pool size
// instead of deadlocking. A spec whose MaxShards caps it below -shards
// holds only the shards it runs on: two of them share a 4-token pool.
func TestRunManyShardsNeverOversubscribe(t *testing.T) {
	const jobs = 4
	for _, tc := range []struct{ shards, maxShards int }{
		{1, 16}, {2, 16}, {3, 16}, {4, 16}, {9, 16}, {4, 2},
	} {
		name := fmt.Sprintf("shards=%d", tc.shards)
		if tc.maxShards < tc.shards {
			name += fmt.Sprintf(",max=%d", tc.maxShards)
		}
		t.Run(name, func(t *testing.T) {
			var inUse, peak atomic.Int64
			var specs []Spec
			for i := 0; i < 10; i++ {
				id := fmt.Sprintf("s%d", i)
				specs = append(specs, Spec{
					ID: id, Title: id, MaxShards: tc.maxShards,
					Run: func(opt Options) (*Result, error) {
						cost := int64(min(opt.tokenCost(), tc.maxShards))
						cur := inUse.Add(cost)
						for {
							p := peak.Load()
							if cur <= p || peak.CompareAndSwap(p, cur) {
								break
							}
						}
						time.Sleep(2 * time.Millisecond)
						inUse.Add(-cost)
						return &Result{ID: id, Title: id}, nil
					},
				})
			}
			results, _, err := RunMany(specs, Options{Shards: tc.shards}, jobs)
			if err != nil {
				t.Fatal(err)
			}
			if len(results) != len(specs) {
				t.Fatalf("%d results, want %d", len(results), len(specs))
			}
			if got := peak.Load(); got > jobs {
				t.Fatalf("peak weighted concurrency %d exceeds %d jobs", got, jobs)
			}
			wantCost := int64(min(tc.shards, tc.maxShards, jobs))
			if tc.shards >= jobs && tc.maxShards >= jobs && peak.Load() != wantCost {
				t.Fatalf("pool-wide spec should still run alone at cost %d, saw peak %d",
					wantCost, peak.Load())
			}
			if tc.maxShards < tc.shards && peak.Load() != jobs {
				t.Fatalf("specs capped at %d shards should run two at a time (peak %d), saw peak %d",
					tc.maxShards, jobs, peak.Load())
			}
		})
	}
}

// An experiment that does not shard costs one token whatever -shards
// says: two of them run side by side at -jobs 2 -shards 2, and so do
// two seeds of one randomized sweep fanned out by eachRepeat. Charged
// two tokens each, the second would wait for the first, which waits
// for it.
func TestRunManyChargesUnshardedOneToken(t *testing.T) {
	// meet returns a function that blocks until n callers are in it.
	meet := func(n int) func() error {
		var arrived sync.WaitGroup
		arrived.Add(n)
		met := make(chan struct{})
		go func() { arrived.Wait(); close(met) }()
		return func() error {
			arrived.Done()
			select {
			case <-met:
				return nil
			case <-time.After(10 * time.Second):
				return fmt.Errorf("ran alone: an unsharded run held more than one token")
			}
		}
	}

	both := meet(2)
	run := func(opt Options) (*Result, error) { return &Result{ID: "x"}, both() }
	specs := []Spec{{ID: "a", Run: run}, {ID: "b", Run: run}}
	if _, _, err := RunMany(specs, Options{Shards: 2}, 2); err != nil {
		t.Fatal(err)
	}

	seeds := meet(2)
	sweep := func(opt Options) (*Result, error) {
		errs := make([]error, 2)
		opt.eachRepeat(2, func(r int) { errs[r] = seeds() })
		return &Result{ID: "sweep"}, errors.Join(errs...)
	}
	if _, _, err := RunMany([]Spec{{ID: "sweep", Run: sweep, Randomized: true}}, Options{Shards: 2}, 2); err != nil {
		t.Fatal(err)
	}
}

// eachRepeat is the nested fan-out used by the randomized sweeps. With
// or without a pool attached it must run every index exactly once and
// let per-index slots reassemble deterministically; with a pool it must
// never deadlock even when every token is already held (the caller
// always runs iterations inline as a fallback).
func TestEachRepeatCoversAllIndices(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  Options
	}{
		{"serial", Options{}},
		{"pooled", Options{pool: newWorkerPool(4)}},
		{"starved", func() Options {
			p := newWorkerPool(2)
			p.acquireN(1)
			p.acquireN(1) // all tokens held: fan-out must degrade to inline
			return Options{pool: p}
		}()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n = 17
			var calls [n]atomic.Int32
			tc.opt.eachRepeat(n, func(r int) { calls[r].Add(1) })
			for r := range calls {
				if got := calls[r].Load(); got != 1 {
					t.Fatalf("index %d ran %d times, want 1", r, got)
				}
			}
		})
	}
}

// The repeat fan-out must not change what a sweep computes: per-index
// slots filled under a pool equal the serial fill.
func TestEachRepeatDeterministicSlots(t *testing.T) {
	fill := func(opt Options) []int64 {
		out := make([]int64, 9)
		opt.eachRepeat(len(out), func(r int) {
			eng := sim.NewEngine()
			for i := 0; i <= r; i++ {
				eng.Schedule(time.Duration(i)*time.Microsecond, func() {})
			}
			eng.Run()
			out[r] = int64(eng.Processed()) * (int64(r) + 3)
		})
		return out
	}
	serial := fill(Options{})
	pooled := fill(Options{pool: newWorkerPool(8)})
	for r := range serial {
		if serial[r] != pooled[r] {
			t.Fatalf("slot %d: serial %d != pooled %d", r, serial[r], pooled[r])
		}
	}
}

// Every fabric experiment must honor the observability and progress
// options, not only the ones whose author remembered the hookup: with a
// bus and a monitor attached, the bus hears the switches and the
// monitor sees the run. (Tables with neither attached are pinned by the
// golden gate.)
func TestFabricExperimentsHonorObsAndMonitor(t *testing.T) {
	for _, id := range []string{
		"incast", "fct-weighted", "scenario-incast", "scenario-permutation", "scenario-fattree",
	} {
		t.Run(id, func(t *testing.T) {
			spec, err := Lookup(id)
			if err != nil {
				t.Fatal(err)
			}
			bus := obs.NewTraceBus(1 << 14)
			mon := sim.NewMonitor()
			if _, err := spec.Run(Options{Quick: true, Seed: 1, Obs: []*obs.Bus{bus}, Monitor: mon}); err != nil {
				t.Fatal(err)
			}
			dequeues := 0
			bus.Ring().Do(func(ev *obs.Event) {
				if ev.Kind == obs.KindDequeue {
					dequeues++
				}
			})
			if dequeues == 0 {
				t.Error("the bus saw no dequeue: switches were not observed")
			}
			if mon.Snapshot().Events == 0 {
				t.Error("the monitor published no progress")
			}
		})
	}
}

// Sharded, a fat-tree's completions run on every pod's worker at once;
// what they record must not depend on how the workers interleave. Run
// under -race this also gates that they share nothing.
func TestFatTreeShardedCompletionsDeterministic(t *testing.T) {
	for _, tc := range []struct {
		id   string
		runs int
	}{{"fattree-incast", 20}, {"scenario-fattree", 3}} {
		spec, err := Lookup(tc.id)
		if err != nil {
			t.Fatal(err)
		}
		var first string
		for i := 0; i < tc.runs; i++ {
			res, err := spec.Run(Options{Quick: true, Seed: 1, Shards: 4})
			if err != nil {
				t.Fatal(err)
			}
			if got := tableDigest(res); i == 0 {
				first = got
			} else if got != first {
				t.Fatalf("%s run %d: table %s differs from run 0's %s", tc.id, i, got, first)
			}
		}
	}
}
