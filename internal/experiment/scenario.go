package experiment

import (
	"fmt"
	"time"

	"pmsb/internal/core"
	"pmsb/internal/ecn"
	"pmsb/internal/flowsim"
	"pmsb/internal/topo"
	"pmsb/internal/transport"
	"pmsb/internal/units"
	"pmsb/internal/workload"
)

// Calibration scenarios: workloads defined once — as engine-agnostic
// (topology config, FlowSpec slice) pairs — and runnable on either the
// packet engine (ground truth) or the flow-level fluid engine
// (internal/flowsim). Flow IDs are assigned in spec order by both
// runners (transport.FlowIDGen and flowsim.Start both start at 1), so
// every ECMP decision lands on the same physical path in both engines;
// what differs is only the fidelity of what happens along that path.
//
// The scenarios are exposed two ways:
//   - `pmsbsim -experiment scenario-*` runs one scenario on the packet
//     engine;
//   - `pmsbsim -experiment calibrate` runs every scenario on both
//     engines and reports the FCT percentile relative error — the
//     number that says how far the fast path can be trusted.
//
// The fluid engine runs nowhere else but `flow-scale`, a 100k-host
// fabric beyond the packet engine's reach: a fluid number is printed
// only beside its measured error or where no packet number can exist.

// scenarioDef is one shared scenario.
type scenarioDef struct {
	id, title string
	build     func(quick bool, seed int64) *scenarioNet
	// maxShards is the most shards the packet fabric partitions into
	// (see Spec.MaxShards).
	maxShards int
}

// scenarioNet is a built scenario: the workload, the flow-level graph,
// and the equivalent packet topology.
type scenarioNet struct {
	specs    []workload.FlowSpec
	services int
	deadline time.Duration
	graph    *topo.PathGraph
	fabric   wiring
}

// engineRun is one engine's view of a scenario run.
type engineRun struct {
	// fcts is indexed by spec order; zero means unfinished at deadline.
	// One slot per flow: on a sharded fabric completions run on every
	// shard's worker at once, so they share nothing.
	fcts   []time.Duration
	events uint64
	wall   time.Duration
}

// completed counts the flows that finished before the deadline.
func (r *engineRun) completed() int {
	s := fctSummary(r.fcts, nil)
	return s.Count()
}

// scenarioProfile is the port profile every scenario fabric uses: DWRR
// over equal-weight service queues, PMSB per-port marking at the
// paper's K=12 packets, 250-packet buffers — the same constants the fct
// sweeps use, and the ones the flow engine's fluid thresholds mirror.
func scenarioProfile(services int) topo.PortProfile {
	return topo.PortProfile{
		Weights:      topo.EqualWeights(services),
		NewSchedWith: topo.DWRRSched,
		NewMarker:    func() ecn.Marker { return &core.PMSB{PortK: units.Packets(fctPortK)} },
		BufferBytes:  units.Packets(fctBufferPkts),
	}
}

// run executes the scenario on one engine: "packet" drives the packet
// topology (sharded as far as Shards asks and it partitions), "flow"
// the path graph with the fluid PMSB marking mirroring the packet
// profile. Flow IDs follow spec order either way.
func (net *scenarioNet) run(id, engine string, opt Options) (*engineRun, error) {
	start := time.Now()
	run := &engineRun{fcts: make([]time.Duration, len(net.specs))}
	switch engine {
	case "packet":
		fab, err := opt.runPacket(net.fabric, func(fab *topo.Fabric) time.Duration {
			opt.startFlows(fab, net.specs, net.services, nil, func(i int, s *transport.Sender) { run.fcts[i] = s.FCT() })
			return net.deadline
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", id, err)
		}
		run.events = fab.Processed()
	case "flow":
		run.events = opt.runFluid(net.graph, net.specs, net.deadline,
			func(r flowsim.FlowResult) { run.fcts[r.Index] = r.FCT })
	default:
		return nil, fmt.Errorf("%s: unknown engine %q (packet|flow)", id, engine)
	}
	run.wall = time.Since(start)
	return run, nil
}

// scenarioDefs enumerates the shared scenarios (the three the
// calibration acceptance list names).
func scenarioDefs() []scenarioDef {
	return []scenarioDef{
		{
			id:    "scenario-incast",
			title: "Calibration scenario: dumbbell incast (16:1, 100KB)",
			build: buildIncastScenario,
		},
		{
			id:    "scenario-permutation",
			title: "Calibration scenario: leaf-spine permutation (200KB)",
			build: buildPermutationScenario,
		},
		{
			id:        "scenario-fattree",
			title:     "Calibration scenario: k=8 fat-tree, web-search CDF at load 0.3",
			build:     buildFatTreeScenario,
			maxShards: fattreeK,
		},
	}
}

func buildIncastScenario(quick bool, seed int64) *scenarioNet {
	senders := 16
	if quick {
		senders = 8
	}
	cfg := topo.DumbbellConfig{Senders: senders, AccessRate: fctRate,
		Bottleneck: scenarioProfile(fattreeServices)}
	srcs := make([]int, senders)
	for i := range srcs {
		srcs[i] = i + 1
	}
	specs := workload.Incast(workload.IncastConfig{
		Receiver: 0,
		Senders:  srcs,
		Size:     100_000,
		Stagger:  time.Microsecond,
		Services: fattreeServices,
	})
	return &scenarioNet{
		specs:    specs,
		services: fattreeServices,
		deadline: 50 * time.Millisecond,
		graph:    topo.DumbbellPaths(cfg),
		fabric:   dumbbellWiring(cfg),
	}
}

func buildPermutationScenario(quick bool, seed int64) *scenarioNet {
	cfg := topo.LeafSpineConfig{Leaves: 4, Spines: 4, HostsPerLeaf: 12, Rate: fctRate,
		Ports: scenarioProfile(fattreeServices)}
	if quick {
		cfg.HostsPerLeaf = 4
	}
	hosts := cfg.Leaves * cfg.HostsPerLeaf
	specs := workload.Permutation(workload.PermutationConfig{
		Hosts:    hosts,
		Dist:     workload.Fixed(200_000),
		Stagger:  2 * time.Microsecond,
		Services: fattreeServices,
		Seed:     seed,
	})
	return &scenarioNet{
		specs:    specs,
		services: fattreeServices,
		deadline: 100 * time.Millisecond,
		graph:    topo.LeafSpinePaths(cfg),
		fabric:   leafSpineWiring(cfg),
	}
}

func buildFatTreeScenario(quick bool, seed int64) *scenarioNet {
	cfg := topo.FatTreeConfig{
		K:               fattreeK,
		Rate:            fctRate,
		FabricDelaySkew: time.Nanosecond,
		Ports:           scenarioProfile(fattreeServices),
	}
	hosts := fattreeK * fattreeK * fattreeK / 4
	numFlows := 300
	if quick {
		numFlows = 60
	}
	specs := workload.Poisson(workload.PoissonConfig{
		Load:     0.3,
		LinkRate: fctRate,
		Hosts:    hosts,
		Dist:     workload.WebSearch(),
		Services: fattreeServices,
		NumFlows: numFlows,
		Seed:     seed,
	})
	return &scenarioNet{
		specs:    specs,
		services: fattreeServices,
		deadline: specs[len(specs)-1].Start + 2*time.Second,
		graph:    topo.FatTreePaths(cfg),
		fabric:   fatTreeWiring(cfg),
	}
}

// runScenario executes one scenario on the packet engine.
func runScenario(def scenarioDef, opt Options) (*Result, error) {
	net := def.build(opt.Quick, opt.seed())
	run, err := net.run(def.id, "packet", opt)
	if err != nil {
		return nil, err
	}
	res := &Result{ID: def.id, Title: def.title, Headers: []string{"metric", "value"}}
	res.AddRow("engine", "packet")
	res.AddRow("flows", fmt.Sprintf("%d", len(net.specs)))
	sum := fctSummary(run.fcts, nil)
	completed := sum.Count()
	res.AddRow("completed", fmt.Sprintf("%d", completed))
	res.AddRow("events", fmt.Sprintf("%d", run.events))
	if sum.Count() > 0 {
		res.AddRow("fct-p50-ms", msec(sum.Percentile(50)))
		res.AddRow("fct-p95-ms", msec(sum.Percentile(95)))
		res.AddRow("fct-p99-ms", msec(sum.Percentile(99)))
	}
	if completed < len(net.specs) {
		res.AddNote("%d of %d flows unfinished at %v", len(net.specs)-completed, len(net.specs), net.deadline)
	}
	res.AddNote("wall clock: %v", run.wall.Round(time.Millisecond))
	return res, nil
}

// scenarioSpecs registers the per-scenario experiments.
func scenarioSpecs() []Spec {
	var specs []Spec
	for _, def := range scenarioDefs() {
		def := def
		specs = append(specs, Spec{
			ID:        def.id,
			Title:     def.title,
			Run:       func(opt Options) (*Result, error) { return runScenario(def, opt) },
			MaxShards: def.maxShards,
		})
	}
	return specs
}
