// Package topo builds the two topologies of the paper's evaluation:
//
//   - a single-bottleneck dumbbell (N senders, one receiver, one switch)
//     for the static-flow experiments of Sections II, III and VI-A, and
//   - the 48-host leaf-spine fabric (4 leaves x 12 hosts, 4 spines,
//     10 Gbps everywhere, ECMP) of the large-scale runs in Section VI-B,
//
// plus the k-ary fat-tree the simulator scales on. Every switch port is
// built from the same scheduler and marker factories so an experiment
// configures one marking scheme fabric-wide, as the paper's NS-3
// scripts do.
//
// Only the fat-tree shards: one routine wires it over a node->shard
// assignment (shardBuilder), NewFatTree(eng, cfg) being the one-shard
// case on the caller's engine and NewFatTreeSharded(coord, cfg, n)
// spreading its pods over a coordinator's shards. The dumbbell and the
// leaf-spine build on one engine. Every topology embeds a Fabric —
// hosts, switches, how to run.
package topo

import (
	"fmt"
	"time"

	"pmsb/internal/ecn"
	"pmsb/internal/netsim"
	"pmsb/internal/pkt"
	"pmsb/internal/sched"
	"pmsb/internal/sim"
	"pmsb/internal/units"
)

// Fabric is what every built topology has in common: its hosts, its
// switches, and the engine or coordinator that drives them. Code that
// runs a fabric — observe the switches, start flows, run, check —
// works on this value and never needs to know the topology's tiers or
// whether the build was sharded.
type Fabric struct {
	// Eng is the driving engine: the caller's engine for a serial
	// build, shard 0's for a sharded one (where it is only a fallback
	// clock — every node schedules on its own shard's engine).
	Eng *sim.Engine
	// Hosts are all hosts; in the built topologies Hosts[i] has NodeID
	// i+1.
	Hosts []*netsim.Host
	// Switches are all switches, every tier in one slice.
	Switches []*netsim.Switch

	coord *sim.Coordinator // nil for a serial build
	part  *Partition       // nil for a serial build
}

// Run advances the simulation to deadline, on the coordinator when the
// fabric is sharded and on the plain engine otherwise.
func (f *Fabric) Run(deadline time.Duration) {
	if f.coord != nil {
		f.coord.RunUntil(deadline)
		return
	}
	f.Eng.RunUntil(deadline)
}

// Processed returns the events executed so far, summed over shards.
func (f *Fabric) Processed() uint64 {
	if f.coord != nil {
		return f.coord.Processed()
	}
	return f.Eng.Processed()
}

// ShardOf returns the shard a node lives on (0 for a serial build).
func (f *Fabric) ShardOf(id pkt.NodeID) int {
	if f.part == nil {
		return 0
	}
	return f.part.mustShardOf(id)
}

// Sanity reports what a correctly wired fabric never does: drop a
// packet for lack of a route, or deliver one to a host no flow claims.
func (f *Fabric) Sanity() error {
	var routeDrops, unclaimed int64
	for _, sw := range f.Switches {
		routeDrops += sw.RouteDrops()
	}
	for _, h := range f.Hosts {
		unclaimed += h.UnclaimedPackets()
	}
	if routeDrops > 0 || unclaimed > 0 {
		return fmt.Errorf("fabric sanity violated (routeDrops=%d unclaimed=%d)", routeDrops, unclaimed)
	}
	return nil
}

// NumHosts returns the host count.
func (f *Fabric) NumHosts() int { return len(f.Hosts) }

// Host returns host by index (0-based).
func (f *Fabric) Host(i int) *netsim.Host { return f.Hosts[i] }

// SchedFactory builds a fresh scheduler for one port given the queue
// weights (schedulers are stateful and cannot be shared across ports).
type SchedFactory func(weights []float64) sched.Scheduler

// MarkerFactory builds the marker for one port. Markers in this
// repository are stateless with respect to the port, but a factory keeps
// the door open for stateful schemes and per-port pools.
type MarkerFactory func() ecn.Marker

// SchedBlockFactory builds a slab-backed scheduler dispenser for ~n
// ports driven by one engine: the returned function hands out one
// scheduler per call, carved from shared backing arrays (see
// sched.FIFOBlock / sched.DWRRBlock). Fabric builders call the factory
// once per shard engine; n is a sizing hint, not a limit.
type SchedBlockFactory func(eng *sim.Engine, weights []float64, n int) func() sched.Scheduler

// PortProfile is the per-port configuration applied across a topology.
type PortProfile struct {
	// Weights are the queue weights (length = queue count).
	Weights []float64
	// Exactly one of NewSched, NewSchedWith and NewSchedBlock builds
	// each port's scheduler; a profile that sets two panics at build
	// time. NewSched is handed the queue weights.
	NewSched SchedFactory
	// NewSchedWith also receives the engine driving the port. Sharded
	// topologies need it: ports live on different shard engines, so a
	// factory pre-bound to one clock (like DWRRFactory's) would feed
	// every other shard's schedulers the wrong time.
	NewSchedWith func(eng *sim.Engine, weights []float64) sched.Scheduler
	// NewSchedBlock lets builders that know their port count carve
	// every scheduler of a shard from a few slabs instead of allocating
	// each one separately (the k=32 memory path).
	NewSchedBlock SchedBlockFactory
	// NewMarker builds each port's marker (nil = no marking).
	NewMarker MarkerFactory
	// SharedMarker, when non-nil, is installed on every port instead of
	// a marker per port (setting NewMarker too panics at build time).
	// Only markers that keep no per-port state may be shared — which all
	// schemes in this repository satisfy (they read the port through
	// ecn.PortView on each decision) — and sharing collapses tens of
	// thousands of identical marker objects into one.
	SharedMarker ecn.Marker
	// BufferBytes is the shared per-port buffer (0 = unlimited).
	BufferBytes int
}

// check panics, at build time, on a profile that names two ways to
// build the same part: whichever lost would be silently dropped.
func (pp *PortProfile) check() {
	with, block := pp.NewSchedWith != nil, pp.NewSchedBlock != nil
	if pp.NewSched != nil && (with || block) || with && block {
		panic("topo: PortProfile sets more than one of NewSched, NewSchedWith and NewSchedBlock")
	}
	if pp.NewMarker != nil && pp.SharedMarker != nil {
		panic("topo: PortProfile sets both NewMarker and SharedMarker")
	}
}

// marker picks the profile's marker for one port.
func (pp *PortProfile) marker() ecn.Marker {
	if pp.SharedMarker != nil {
		return pp.SharedMarker
	}
	if pp.NewMarker != nil {
		return pp.NewMarker()
	}
	return nil
}

// scheduler builds one scheduler outside a block context.
func (pp *PortProfile) scheduler(eng *sim.Engine) sched.Scheduler {
	switch {
	case pp.NewSchedBlock != nil:
		return pp.NewSchedBlock(eng, pp.Weights, 1)()
	case pp.NewSchedWith != nil:
		return pp.NewSchedWith(eng, pp.Weights)
	default:
		return pp.NewSched(pp.Weights)
	}
}

// newPort instantiates one port from the profile.
func (pp PortProfile) newPort(eng *sim.Engine, link *netsim.Link) *netsim.Port {
	pp.check()
	return netsim.NewPort(link, netsim.PortConfig{
		Sched:       pp.scheduler(eng),
		Marker:      pp.marker(),
		BufferBytes: pp.BufferBytes,
	})
}

// EqualWeights returns n equal (1.0) weights.
func EqualWeights(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	return w
}

// DWRRFactory returns a SchedFactory building DWRR schedulers wired to
// the engine clock (so MQ-ECN can read round times).
func DWRRFactory(eng *sim.Engine) SchedFactory {
	return func(weights []float64) sched.Scheduler {
		return sched.NewDWRR(weights, units.MTU, sched.WithClock(eng.Now))
	}
}

// DWRRSched builds one DWRR scheduler on the given engine's clock. Use
// it as PortProfile.NewSchedWith in sharded topologies (the per-shard
// counterpart of DWRRFactory).
func DWRRSched(eng *sim.Engine, weights []float64) sched.Scheduler {
	return sched.NewDWRR(weights, units.MTU, sched.WithClock(eng.Now))
}

// WRRSched builds one WRR scheduler on the given engine's clock
// (round-based, so MQ-ECN works on it too); use it as
// PortProfile.NewSchedWith.
func WRRSched(eng *sim.Engine, weights []float64) sched.Scheduler {
	return sched.NewWRR(weights, sched.WithWRRClock(eng.Now))
}

// WFQFactory returns a SchedFactory building WFQ schedulers.
func WFQFactory() SchedFactory {
	return func(weights []float64) sched.Scheduler { return sched.NewWFQ(weights) }
}

// SPFactory returns a SchedFactory building strict-priority schedulers.
func SPFactory() SchedFactory {
	return func(weights []float64) sched.Scheduler { return sched.NewSP(len(weights)) }
}

// SPWFQFactory returns a SchedFactory building SP+WFQ schedulers with
// the given number of leading strict queues.
func SPWFQFactory(high int) SchedFactory {
	return func(weights []float64) sched.Scheduler { return sched.NewSPWFQ(high, weights) }
}

// FIFOFactory returns a SchedFactory building single-queue FIFOs.
func FIFOFactory() SchedFactory {
	return func([]float64) sched.Scheduler { return sched.NewFIFO() }
}

// FIFOBlocks returns a SchedBlockFactory carving single-queue FIFOs
// from per-shard slabs.
func FIFOBlocks() SchedBlockFactory {
	return func(_ *sim.Engine, _ []float64, n int) func() sched.Scheduler {
		b := sched.NewFIFOBlock(n)
		return func() sched.Scheduler { return b.Next() }
	}
}

// DWRRBlocks returns a SchedBlockFactory carving DWRR schedulers from
// per-shard slabs, each wired to its shard engine's clock (so MQ-ECN
// round times stay correct across shards).
func DWRRBlocks() SchedBlockFactory {
	return func(eng *sim.Engine, weights []float64, n int) func() sched.Scheduler {
		b := sched.NewDWRRBlock(n, weights, units.MTU, sched.WithClock(eng.Now))
		return func() sched.Scheduler { return b.Next() }
	}
}
