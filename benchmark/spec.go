package main

import (
	"encoding/json"
	"fmt"
)

// This file is the benchmark's contract in one place: the workload
// names, every metric's name, unit and direction, which per-layer
// counts repeat bit-for-bit at a fixed seed, and the regression bounds.
// BENCHMARK.json at the repository root is this table rendered by
// `benchmark spec`; TestNameContract fails when the two drift apart.

// runSeconds is how long one invocation measures (BENCHMARK.json
// run_seconds). Sized so the driver's 4+22x6 runs fit its 3420 s cap
// with room for two cold builds.
const runSeconds = 10

// workloadSpec is one workload: its contract name, why it exists, and
// how the benchmark runs it.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// run is the body of one rep.
	run workloadRun
	// ref, when set, gives the workload a reference rep (variant "ref":
	// the serial run of the sharded inputs, the untraced run of the
	// traced ones, the calibration of the fluid engine) and folds it into
	// the per-layer metrics m of the plain rep that shares its inputs.
	ref func(m map[string]float64, plain, ref *repResult)
	// refIsTwin says the reference rep simulates the plain rep's inputs
	// another way, so the two sim_digests must agree.
	refIsTwin bool
	// longReps marks workloads whose reps take seconds, so that only the
	// first defines the simulated metrics (see fidelityReps).
	longReps bool
}

var workloadSpecs = []workloadSpec{
	{
		Name: "dumbbell-static",
		Why:  "Fig. 8 shape, closed loop, under 100 pending events: port+sched+marker+transport carry the time, the event queue's chain walks vanish (bypass for queue work)",
		run:  func(e *repEnv) error { return runDumbbell(e, dumbbellProfile()) },
	},
	{
		Name:     "paper-quick",
		Why:      "experiment.RunMany over 27 quick paper experiments, jobs=1: what users run; touches every scheduler, marker and transport the paper evaluates and carries the paper-claim checks",
		run:      runPaperQuick,
		longReps: true,
	},
	{
		Name: "fattree8-serial",
		Why:  "k=8 fat-tree, serial engine, Poisson 50KB flows: most of the CPU is the calendar queue's sorted-chain insert (exercise for queue work)",
		run:  func(e *repEnv) error { return runFatTree(e, fatTree8) },
	},
	{
		Name: "fattree32-sharded",
		Why:  "k=32 arena-built fat-tree on 2 fixed shards, ParChannel: the only workload where the coordinator, slab handoff and memory footprint matter",
		run:  runFatTree32Sharded,
		ref: func(m map[string]float64, plain, ref *repResult) {
			m["coord.serial_wall_s"] = ref.WallS
			m["coord.speedup"] = ratio(ref.WallS, plain.WallS)
		},
		refIsTwin: true,
	},
	{
		Name: "fattree8-obs",
		Why:  "fattree8-serial fully traced to a binary spill file, then reduced and range-read back: the obs codec used both ways in one number",
		run:  runFatTree8Obs,
		ref: func(m map[string]float64, plain, ref *repResult) {
			m["obs.untraced_wall_s"] = ref.WallS
			m["obs.overhead_ratio"] = ratio(plain.Layer["obs.write_wall_s"], ref.WallS)
		},
		refIsTwin: true,
	},
	{
		Name: "flowsim-scale",
		Why:  "20k-host leaf-spine on the flow-level fluid engine only: bypass for every packet-engine change, guard for flowsim work",
		run:  runFlowsimScale,
		ref: func(m map[string]float64, _, ref *repResult) {
			m["flowsim.calib_err_p50_pct"] = ref.Layer["flowsim.calib_err_p50_pct"]
			m["flowsim.calib_err_p99_pct"] = ref.Layer["flowsim.calib_err_p99_pct"]
		},
	},
}

// findWorkload looks a workload up by its contract name.
func findWorkload(name string) (workloadSpec, error) {
	for _, w := range workloadSpecs {
		if w.Name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q", name)
}

// metricSpec is one metric's contract row. Bound is the share of the
// parent's median by which an end-to-end metric may worsen; Exact
// marks per-layer counts that repeat bit-for-bit at a fixed seed
// (compare requires them equal).
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
	Exact  bool    `json:"-"`
}

// Units: "s", "ms" are host wall clock; "*_sim" units are virtual time
// of the modelled network and repeat exactly at a fixed seed.
var endToEnd = []metricSpec{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.15},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.15},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "fct_mean_us", Unit: "us_sim", Better: "lower", Bound: 0.10},
	{Name: "fct_p95_us", Unit: "us_sim", Better: "lower", Bound: 0.15},
}

var perLayer = []metricSpec{
	{Name: "sim.events", Unit: "count", Better: "lower", Exact: true},
	{Name: "sim.ns_per_event", Unit: "ns/event", Better: "lower"},
	{Name: "sim.pending_hiwater", Unit: "count", Better: "lower"},
	{Name: "sim.queue_buckets", Unit: "count", Better: "lower"},
	{Name: "sim.queue_width_ns", Unit: "ns_sim", Better: "lower"},
	{Name: "sim.queue_grows", Unit: "count", Better: "lower"},
	{Name: "sim.queue_shrinks", Unit: "count", Better: "lower"},
	{Name: "sim.queue_migrations", Unit: "count", Better: "lower"},
	{Name: "sim.replay_ns_per_event", Unit: "ns/event", Better: "lower"},
	{Name: "sim.replay_heap_ns_per_event", Unit: "ns/event", Better: "lower"},
	{Name: "sim.replay_floor_ns_per_event", Unit: "ns/event", Better: "lower"},
	{Name: "sim.replay_coverage", Unit: "ratio", Better: "higher"},
	{Name: "sim.queue_share", Unit: "ratio", Better: "lower"},

	{Name: "coord.grants", Unit: "count", Better: "lower"},
	{Name: "coord.events_per_grant", Unit: "count", Better: "higher"},
	{Name: "coord.grant_width_mean_ns", Unit: "ns_sim", Better: "higher"},
	{Name: "coord.null_advances", Unit: "count", Better: "lower"},
	{Name: "coord.relax_rounds", Unit: "count", Better: "lower"},
	{Name: "coord.outbox_sent", Unit: "count", Better: "lower", Exact: true},
	{Name: "coord.parked", Unit: "count", Better: "lower"},
	{Name: "coord.steals", Unit: "count", Better: "lower"},
	{Name: "coord.shard_imbalance", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "coord.worker_busy_share", Unit: "ratio", Better: "higher"},
	{Name: "coord.worker_idle_share", Unit: "ratio", Better: "lower"},
	{Name: "coord.worker_blocked_share", Unit: "ratio", Better: "lower"},
	{Name: "coord.coord_blocked_share", Unit: "ratio", Better: "lower"},
	{Name: "coord.serial_wall_s", Unit: "s", Better: "lower"},
	{Name: "coord.speedup", Unit: "ratio", Better: "higher"},

	{Name: "netsim.enqueues", Unit: "count", Better: "lower", Exact: true},
	{Name: "netsim.tx_pkts", Unit: "count", Better: "lower", Exact: true},
	{Name: "netsim.drops", Unit: "count", Better: "lower", Exact: true},
	{Name: "netsim.marks", Unit: "count", Better: "lower", Exact: true},
	{Name: "netsim.drop_ratio", Unit: "ratio", Better: "lower"},
	{Name: "netsim.route_drops", Unit: "count", Better: "lower", Exact: true},
	{Name: "netsim.unclaimed", Unit: "count", Better: "lower", Exact: true},
	{Name: "netsim.residual_ns_per_event", Unit: "ns/event", Better: "lower"},

	{Name: "sched.enqueue_calls", Unit: "count", Better: "lower", Exact: true},
	{Name: "sched.dequeue_calls", Unit: "count", Better: "lower", Exact: true},
	{Name: "sched.dequeue_empty", Unit: "count", Better: "lower", Exact: true},
	{Name: "sched.dequeue_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "sched.enqueue_ns", Unit: "ns/op", Better: "lower"},
	{Name: "sched.dequeue_ns", Unit: "ns/op", Better: "lower"},
	{Name: "sched.busy_share", Unit: "ratio", Better: "lower"},
	{Name: "sched.port_bytes_p50", Unit: "B", Better: "lower", Exact: true},
	{Name: "sched.port_bytes_max", Unit: "B", Better: "lower", Exact: true},

	{Name: "ecn.decisions", Unit: "count", Better: "lower", Exact: true},
	{Name: "ecn.marks", Unit: "count", Better: "lower", Exact: true},
	{Name: "ecn.blind", Unit: "count", Better: "lower", Exact: true},
	{Name: "ecn.mark_ratio", Unit: "ratio", Better: "lower"},
	{Name: "ecn.blind_ratio", Unit: "ratio", Better: "lower"},
	{Name: "ecn.decide_ns", Unit: "ns/op", Better: "lower"},
	{Name: "ecn.busy_share", Unit: "ratio", Better: "lower"},

	{Name: "transport.handle_calls", Unit: "count", Better: "lower", Exact: true},
	{Name: "transport.flows_started", Unit: "count", Better: "higher", Exact: true},
	{Name: "transport.flows_finished", Unit: "count", Better: "higher", Exact: true},
	{Name: "transport.retransmits", Unit: "count", Better: "lower", Exact: true},
	{Name: "transport.marks_seen", Unit: "count", Better: "lower", Exact: true},
	{Name: "transport.marks_accepted", Unit: "count", Better: "lower", Exact: true},
	{Name: "transport.retx_ratio", Unit: "ratio", Better: "lower"},
	{Name: "transport.handle_ns", Unit: "ns/op", Better: "lower"},
	{Name: "transport.busy_share", Unit: "ratio", Better: "lower"},
	{Name: "transport.install_s", Unit: "s", Better: "lower"},
	{Name: "transport.install_mallocs", Unit: "count", Better: "lower"},
	{Name: "transport.fct_samples", Unit: "count", Better: "higher", Exact: true},
	{Name: "transport.fct_p50_us", Unit: "us_sim", Better: "lower", Exact: true},

	{Name: "pkt.gets", Unit: "count", Better: "lower", Exact: true},
	{Name: "pkt.releases", Unit: "count", Better: "lower", Exact: true},
	{Name: "pkt.inuse_hiwater", Unit: "count", Better: "lower"},

	{Name: "topo.build_s", Unit: "s", Better: "lower"},
	{Name: "topo.build_mallocs", Unit: "count", Better: "lower"},
	{Name: "topo.bytes_per_port", Unit: "B/port", Better: "lower"},
	{Name: "workload.generate_s", Unit: "s", Better: "lower"},

	{Name: "obs.events", Unit: "count", Better: "lower", Exact: true},
	{Name: "obs.dropped", Unit: "count", Better: "lower", Exact: true},
	{Name: "obs.trace_bytes", Unit: "B", Better: "lower", Exact: true},
	{Name: "obs.bytes_per_event", Unit: "B/event", Better: "lower"},
	{Name: "obs.write_wall_s", Unit: "s", Better: "lower"},
	{Name: "obs.flush_s", Unit: "s", Better: "lower"},
	{Name: "obs.read_wall_s", Unit: "s", Better: "lower"},
	{Name: "obs.read_events_per_s", Unit: "1/s", Better: "higher"},
	{Name: "obs.untraced_wall_s", Unit: "s", Better: "lower"},
	{Name: "obs.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "obs.emit_ns", Unit: "ns/op", Better: "lower"},

	{Name: "flowsim.flows", Unit: "count", Better: "higher", Exact: true},
	{Name: "flowsim.events", Unit: "count", Better: "lower", Exact: true},
	{Name: "flowsim.graph_build_s", Unit: "s", Better: "lower"},
	{Name: "flowsim.start_s", Unit: "s", Better: "lower"},
	{Name: "flowsim.ns_per_flow", Unit: "ns/flow", Better: "lower"},
	{Name: "flowsim.calib_err_p50_pct", Unit: "%", Better: "lower", Exact: true},
	{Name: "flowsim.calib_err_p99_pct", Unit: "%", Better: "lower", Exact: true},

	{Name: "experiment.events_total", Unit: "count", Better: "lower", Exact: true},
	{Name: "experiment.static_ns_per_event", Unit: "ns/event", Better: "lower"},
	{Name: "experiment.fct_ns_per_event", Unit: "ns/event", Better: "lower"},
	{Name: "experiment.fattree_ns_per_event", Unit: "ns/event", Better: "lower"},
	{Name: "experiment.slowest_wall_ms", Unit: "ms", Better: "lower"},

	{Name: "host.mallocs", Unit: "count", Better: "lower"},
	{Name: "host.mallocs_per_kevent", Unit: "count", Better: "lower"},
	{Name: "host.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "host.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "host.heap_inuse_mb", Unit: "MB", Better: "lower"},
	{Name: "host.cpu_s", Unit: "s", Better: "lower"},
	{Name: "host.cpu_util", Unit: "ratio", Better: "higher"},
	{Name: "bench.trace_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "bench.spans_recorded", Unit: "count", Better: "higher"},
}

// benchmarkJSON renders the contract as the BENCHMARK.json document.
func benchmarkJSON() ([]byte, error) {
	b, err := json.MarshalIndent(struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []metricSpec   `json:"end_to_end"`
		PerLayer   []metricSpec   `json:"per_layer"`
	}{
		Command:    []string{"sh", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloadSpecs,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("render BENCHMARK.json: %w", err)
	}
	return append(b, '\n'), nil
}
