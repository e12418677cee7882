package experiment

import (
	"fmt"
	"time"

	"pmsb/internal/flowsim"
	"pmsb/internal/netsim"
	"pmsb/internal/obs"
	"pmsb/internal/sim"
	"pmsb/internal/topo"
	"pmsb/internal/transport"
	"pmsb/internal/units"
	"pmsb/internal/workload"
)

// The two run paths every simulation goes through: runPacket for the
// packet engine (serial or sharded), runFluid for the flow-level
// engine. An experiment supplies a wiring and a workload; the
// engine, the coordinator, tracing, progress monitoring, runtime stats,
// the sanity check and the manifest's accounting are wired here and
// nowhere else, so no experiment can forget one of them.

// wiring is a topology's pair of entry points bound to one config, and
// limit, the most shards the topology partitions into: a k-ary
// fat-tree k (one pod per shard at most). A fabric that only builds
// serially (the dumbbell, the leaf-spine, pfc, pool) leaves sharded nil
// and limit 0.
type wiring struct {
	serial  func(*sim.Engine) *topo.Fabric
	sharded func(*sim.Coordinator, int) *topo.Fabric
	limit   int
}

func dumbbellWiring(cfg topo.DumbbellConfig) wiring {
	return wiring{serial: func(eng *sim.Engine) *topo.Fabric { return &topo.NewDumbbell(eng, cfg).Fabric }}
}

func leafSpineWiring(cfg topo.LeafSpineConfig) wiring {
	return wiring{serial: func(eng *sim.Engine) *topo.Fabric { return &topo.NewLeafSpine(eng, cfg).Fabric }}
}

func fatTreeWiring(cfg topo.FatTreeConfig) wiring {
	return wiring{
		serial: func(eng *sim.Engine) *topo.Fabric { return &topo.NewFatTree(eng, cfg).Fabric },
		sharded: func(c *sim.Coordinator, n int) *topo.Fabric {
			ft, _ := topo.NewFatTreeSharded(c, cfg, n)
			return &ft.Fabric
		},
		limit: cfg.K,
	}
}

// width is how many shards a run of w spreads over: what Shards asks,
// capped at the topology's partition limit.
func (o Options) width(w wiring) int {
	return max(1, min(o.shards(), w.limit))
}

// busFor returns the bus of the shard a fabric node lives on. Each bus
// is fed by exactly one shard engine, so per-bus event streams are
// byte-identical to a serial run with the same bus split — the property
// the spill-merge path relies on. Transports bind Config.Obs to their
// source host's bus: a sender emits on its source host's engine.
func (o Options) busFor(fab *topo.Fabric, n netsim.Node) *obs.Bus {
	return o.obsFor(fab.ShardOf(n.NodeID()))
}

// runPacket builds w's fabric on a fresh serial engine, or across
// opt.width(w) shards of a fresh coordinator, with the monitor and
// runtime stats attached, observes every switch on its shard's bus,
// lets start launch the workload and name the deadline, runs, and
// credits the run to the manifest. The error is a traced run wider
// than its bus list, refused before any fabric is built, or the
// fabric's sanity check.
func (o Options) runPacket(w wiring, start func(fab *topo.Fabric) (deadline time.Duration)) (*topo.Fabric, error) {
	var (
		fab    *topo.Fabric
		coord  *sim.Coordinator
		shards = o.width(w)
		t0     = time.Now()
	)
	if o.tracing() && shards > len(o.Obs) {
		return nil, fmt.Errorf("traced run on %d shards has %d buses: a shard would share another's bus", shards, len(o.Obs))
	}
	if shards > 1 {
		coord = sim.NewCoordinator()
		coord.SetMonitor(o.Monitor)
		if o.Runtime != nil {
			coord.EnableRuntimeStats()
		}
		fab = w.sharded(coord, shards)
	} else {
		eng := sim.NewEngine()
		eng.SetMonitor(o.Monitor)
		fab = w.serial(eng)
	}
	if o.tracing() {
		for _, sw := range fab.Switches {
			sw.Observe(o.busFor(fab, sw))
		}
	}
	fab.Run(start(fab))

	o.acct.credit("packet", shards, fab.Processed(), time.Since(t0))
	if o.Runtime != nil {
		if coord != nil {
			o.Runtime.ObserveCoordinator(coord)
		} else {
			o.Runtime.ObserveSerial(fab.Eng)
		}
	}
	return fab, fab.Sanity()
}

// startFlows launches a workload on fab the way every open-loop
// experiment does: one DCTCP flow per spec with the sweeps' initial
// window, flow IDs in spec order (what ECMP hashes), its service taken
// modulo the ports' queue count, traced on its source host's bus,
// started at spec.Start. filter, when non-nil, builds each flow's ECN
// filter; done is told when flow i completes.
func (o Options) startFlows(fab *topo.Fabric, specs []workload.FlowSpec, queues int, filter func() transport.Filter,
	done func(i int, s *transport.Sender)) {
	var fid transport.FlowIDGen
	for i, spec := range specs {
		cfg := transport.Config{InitWindow: fctInitWindow, Obs: o.busFor(fab, fab.Host(spec.Src))}
		if filter != nil {
			cfg.Filter = filter()
		}
		f := transport.NewFlow(fab.Eng, fab.Host(spec.Src), fab.Host(spec.Dst), fid.Next(),
			spec.Service%queues, spec.Size, cfg, func(s *transport.Sender) { done(i, s) })
		f.Sender.StartAt(spec.Start)
	}
}

// runFluid runs specs over g on the flow-level engine — every port
// marking at PMSB's K of fctPortK packets, the sweeps' initial window —
// until deadline, with the same monitor hookup and manifest accounting
// as runPacket, and returns the events processed.
func (o Options) runFluid(g *topo.PathGraph, specs []workload.FlowSpec, deadline time.Duration,
	onFinish func(flowsim.FlowResult)) uint64 {
	t0 := time.Now()
	eng := sim.NewEngine()
	fs := flowsim.New(eng, g, flowsim.Config{
		Marking:    flowsim.PMSB{KBytes: float64(units.Packets(fctPortK))},
		InitWindow: fctInitWindow,
		OnFinish:   onFinish,
	})
	eng.SetMonitor(o.Monitor)
	fs.Start(specs)
	eng.RunUntil(deadline)
	o.acct.credit("flow", 1, eng.Processed(), time.Since(t0))
	if o.Runtime != nil {
		o.Runtime.ObserveSerial(eng)
	}
	return eng.Processed()
}
