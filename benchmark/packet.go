package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"pmsb/internal/netsim"
	"pmsb/internal/obs"
	"pmsb/internal/pkt"
	"pmsb/internal/sim"
	"pmsb/internal/topo"
	"pmsb/internal/transport"
	"pmsb/internal/units"
	"pmsb/internal/workload"
)

// The four packet-engine workloads. They differ in topology, engine and
// observation; building, installing flows, running, counting and
// checking are shared.

const (
	linkRate = 10 * units.Gbps
	flowSize = 50_000 // bytes; fixed so the work is the same at every seed
	services = 8

	// Contract sizes (scale 1), chosen so one plain rep takes about a
	// second on the 2-core reference box and a 10 s run holds about ten.
	fatTree8Flows    = 1536
	fatTree32Flows   = 1536
	fatTree8ObsFlows = 1024
	fatTree32Shards  = 2 // fixed, not nproc: the partition decides the simulated result
	dumbbellQ1Flows  = 900
	dumbbellQ2Flows  = 225 // per queue-2 sender, four of them
	dumbbellFlowSize = 1_000_000
)

// fabric is a built topology as the shared code sees it.
type fabric struct {
	hosts    []*netsim.Host
	switches []*netsim.Switch
	engines  []*sim.Engine
	coord    *sim.Coordinator // nil: serial, on engines[0]
	shardOf  func(pkt.NodeID) int
	overflow int
}

// ports visits every output port: switch ports, then host NICs.
func (f *fabric) ports(visit func(p *netsim.Port, owner pkt.NodeID)) {
	for _, sw := range f.switches {
		for i := 0; i < sw.NumPorts(); i++ {
			visit(sw.Port(i), sw.NodeID())
		}
	}
	for _, h := range f.hosts {
		visit(h.NIC(), h.NodeID())
	}
}

func (f *fabric) numPorts() int {
	n := 0
	f.ports(func(*netsim.Port, pkt.NodeID) { n++ })
	return n
}

func (f *fabric) runUntil(horizon time.Duration) {
	if f.coord != nil {
		f.coord.RunUntil(horizon)
		return
	}
	f.engines[0].RunUntil(horizon)
}

func (f *fabric) processed() uint64 {
	var n uint64
	for _, e := range f.engines {
		n += e.Processed()
	}
	return n
}

// buildPhase times the topology build. The traced variant first builds
// the same fabric without instruments, only to count what an untraced
// build allocates and keeps alive (the wrappers add two objects per
// port); that fabric is kept for install's accounting and then dropped.
func (e *repEnv) buildPhase(pp topo.PortProfile, build func(pp topo.PortProfile) *fabric) *fabric {
	if e.traced() {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		e.account = build(pp)
		runtime.ReadMemStats(&after)
		e.res.Layer["topo.build_mallocs"] = float64(after.Mallocs - before.Mallocs)
		runtime.GC()
		runtime.ReadMemStats(&after)
		e.res.Layer["topo.bytes_per_port"] = ratio(float64(after.HeapAlloc)-float64(before.HeapAlloc), float64(e.account.numPorts()))
		pp = e.tr.wrapProfile(pp, pmsbK)
	}
	t := time.Now()
	fab := build(pp)
	e.res.Layer["topo.build_s"] = time.Since(t).Seconds()
	e.tr.phase(layerTopo, opBuild, t)
	if e.traced() {
		// Record every transmission start, per shard, for the replay.
		fab.ports(func(p *netsim.Port, owner pkt.NodeID) {
			e.tr.windows[fab.shardOf(owner)].tapPort(p)
		})
	}
	e.res.Sizes["hosts"] = len(fab.hosts)
	e.res.Sizes["ports"] = fab.numPorts()
	e.res.Sizes["shards"] = len(fab.engines)
	return fab
}

// generate times workload generation.
func (e *repEnv) generate(gen func() []workload.FlowSpec) []workload.FlowSpec {
	t := time.Now()
	specs := gen()
	e.res.Layer["workload.generate_s"] = time.Since(t).Seconds()
	e.tr.phase(layerWorkload, opGenerate, t)
	e.res.Sizes["flows"] = len(specs)
	return specs
}

// chain is one source's closed-loop state: its flows in order and the
// index of the one running.
type chain struct {
	flows  []*transport.Flow
	next   int
	onDone func(*transport.Sender)
}

// install creates one transport flow per spec. Open loop: every flow
// starts at its spec's Start. Closed loop: each source runs its specs
// back to back — the first at its Start, each next one when the
// previous completes — so the offered load follows the simulated
// network's speed, never the simulator's.
func (e *repEnv) install(fab *fabric, specs []workload.FlowSpec, cfg transport.Config, closed bool) []*transport.Flow {
	if e.account != nil {
		// What an untraced install allocates (the taps add two objects
		// per flow), counted on the uninstrumented twin fabric.
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		installFlows(e.account, specs, cfg, closed, nil)
		runtime.ReadMemStats(&after)
		e.res.Layer["transport.install_mallocs"] = float64(after.Mallocs - before.Mallocs)
		e.account = nil
	}
	t := time.Now()
	flows := installFlows(fab, specs, cfg, closed, e.tr)
	e.res.Layer["transport.install_s"] = time.Since(t).Seconds()
	e.tr.phase(layerTransport, opInstall, t)
	return flows
}

// installFlows wires the flows; a non-nil tr taps every endpoint and
// records every flow start.
func installFlows(fab *fabric, specs []workload.FlowSpec, cfg transport.Config, closed bool, tr *tracer) []*transport.Flow {
	flows := make([]*transport.Flow, len(specs))
	chains := map[int]*chain{}
	var fid transport.FlowIDGen
	for i, s := range specs {
		src, dst := fab.hosts[s.Src], fab.hosts[s.Dst]
		var w *window
		if tr != nil {
			w = tr.windows[fab.shardOf(src.NodeID())]
		}
		var c *chain
		if closed {
			if c = chains[s.Src]; c == nil {
				c = &chain{}
				chains[s.Src] = c
				c.onDone = func(*transport.Sender) {
					if c.next++; c.next == len(c.flows) {
						return
					}
					if w != nil {
						w.starts = append(w.starts, src.Engine().Now())
					}
					c.flows[c.next].Sender.Start()
				}
			}
		}
		id := fid.Next()
		if c != nil {
			flows[i] = transport.NewFlow(src.Engine(), src, dst, id, s.Service, s.Size, cfg, c.onDone)
			c.flows = append(c.flows, flows[i])
		} else {
			flows[i] = transport.NewFlow(src.Engine(), src, dst, id, s.Service, s.Size, cfg, nil)
		}
		if tr != nil {
			tr.tapHandler(src, s.Src, id, flows[i].Sender)
			tr.tapHandler(dst, s.Dst, id, flows[i].Receiver)
		}
		if c == nil || len(c.flows) == 1 {
			flows[i].Sender.StartAt(s.Start)
			if w != nil {
				w.starts = append(w.starts, s.Start)
			}
		}
	}
	return flows
}

// collect reads every public counter after the run, applies the fabric
// sanity checks, and fills the simulated metrics and the digest.
func (e *repEnv) collect(fab *fabric, flows []*transport.Flow) {
	m := e.res.Layer
	var fcts []time.Duration
	var started, retx, seen, accepted, segments int64
	for _, f := range flows {
		s := f.Sender
		if s.Finished() {
			fcts = append(fcts, s.FCT())
		}
		if s.AckedBytes() > 0 { // the sender has no Started accessor; one ACK proves it
			started++
		}
		retx += s.Retransmits()
		seen += s.MarksSeen()
		accepted += s.MarksAccepted()
		segments += f.Receiver.RxPackets()
	}
	e.res.Units, e.res.Finished = len(flows), len(fcts)
	e.setFCT(fcts)
	m["transport.flows_started"] = float64(started)
	m["transport.flows_finished"] = float64(len(fcts))
	m["transport.retransmits"] = float64(retx)
	m["transport.marks_seen"] = float64(seen)
	m["transport.marks_accepted"] = float64(accepted)
	m["transport.retx_ratio"] = ratio(float64(retx), float64(segments))

	var tx, marks, drops, resident int64
	fab.ports(func(p *netsim.Port, _ pkt.NodeID) {
		tx += p.TxPackets()
		marks += p.MarkedPackets()
		drops += p.DropPackets()
		resident += int64(p.PortPackets())
	})
	var routeDrops, unclaimed int64
	for _, sw := range fab.switches {
		routeDrops += sw.RouteDrops()
	}
	for _, h := range fab.hosts {
		unclaimed += h.UnclaimedPackets()
	}
	m["netsim.enqueues"] = float64(tx + resident)
	m["netsim.tx_pkts"] = float64(tx)
	m["netsim.drops"] = float64(drops)
	m["netsim.marks"] = float64(marks)
	m["netsim.drop_ratio"] = ratio(float64(drops), float64(tx+resident+drops))
	m["netsim.route_drops"] = float64(routeDrops)
	m["netsim.unclaimed"] = float64(unclaimed)
	e.res.check("sanity.route_drops", routeDrops == 0, "%d packets had no route", routeDrops)
	e.res.check("sanity.unclaimed", unclaimed == 0, "%d packets reached a host with no handler", unclaimed)
	e.res.check("sanity.arena_overflow", fab.overflow == 0, "%d objects missed the arena", fab.overflow)
	e.res.Digest = digest(fcts, tx, marks, drops)

	var hiwater, buckets int
	var width time.Duration
	var grows, shrinks, migrations uint64
	for _, eng := range fab.engines {
		st := eng.Stats()
		if st.HiWater > hiwater {
			hiwater = st.HiWater
		}
		buckets += st.Queue.Buckets
		width += st.Queue.Width
		grows += st.Queue.Grows
		shrinks += st.Queue.Shrinks
		migrations += st.Queue.Migrations
	}
	m["sim.pending_hiwater"] = float64(hiwater)
	m["sim.queue_buckets"] = float64(buckets)
	m["sim.queue_width_ns"] = float64(width) / float64(len(fab.engines))
	m["sim.queue_grows"] = float64(grows)
	m["sim.queue_shrinks"] = float64(shrinks)
	m["sim.queue_migrations"] = float64(migrations)
}

// finishTraced rolls the wrapper counters up, reads the pool and
// coordinator self-profiles, and replays the recorded window.
func (e *repEnv) finishTraced(fab *fabric) {
	if !e.traced() {
		return
	}
	m := e.res.Layer
	timedNs := e.res.WallS * 1e9
	layersNs := e.tr.rollup(m, timedNs)

	ps := pkt.ReadPoolStats()
	pkt.EnablePoolStats(false)
	m["pkt.gets"] = float64(ps.Gets)
	m["pkt.releases"] = float64(ps.Releases)
	m["pkt.inuse_hiwater"] = float64(ps.HiWater)

	if fab.coord != nil {
		if st, ok := fab.coord.RuntimeStats(); ok {
			coordMetrics(m, st)
		}
	}

	t := time.Now()
	rp := replayAll(e.tr.windows)
	e.tr.phase(layerSim, opReplay, t)
	e.res.check("replay.pops_what_it_scheduled", rp.ok, "replay lost, invented or reordered events")
	m["sim.replay_ns_per_event"] = rp.calNs
	m["sim.replay_heap_ns_per_event"] = rp.heapNs
	m["sim.replay_floor_ns_per_event"] = rp.floorNs
	m["sim.replay_coverage"] = ratio(float64(rp.events), float64(e.res.Events))
	queueNs := rp.calNs * float64(e.res.Events)
	m["netsim.residual_ns_per_event"] = ratio(timedNs-layersNs-queueNs, float64(e.res.Events))
}

// coordMetrics folds the coordinator's runtime self-profile.
func coordMetrics(m map[string]float64, st sim.CoordinatorStats) {
	var grants, nulls, sent, parked, steals, events, maxEvents uint64
	var width time.Duration
	for _, s := range st.PerShard {
		grants += s.Grants
		width += s.GrantWidth
		nulls += s.NullAdvances
		sent += s.OutboxSent
		parked += s.Parked
		steals += s.Steals
		events += s.Events
		if s.Events > maxEvents {
			maxEvents = s.Events
		}
	}
	var busy, idle, blocked time.Duration
	for _, w := range st.PerWorker {
		busy += w.Busy
		idle += w.Idle
		blocked += w.Blocked
	}
	workerTotal := float64(busy + idle + blocked)
	m["coord.grants"] = float64(grants)
	m["coord.events_per_grant"] = ratio(float64(events), float64(grants))
	m["coord.grant_width_mean_ns"] = ratio(float64(width), float64(grants))
	m["coord.null_advances"] = float64(nulls)
	m["coord.relax_rounds"] = float64(st.RelaxRounds)
	m["coord.outbox_sent"] = float64(sent)
	m["coord.parked"] = float64(parked)
	m["coord.steals"] = float64(steals)
	m["coord.shard_imbalance"] = ratio(float64(maxEvents)*float64(len(st.PerShard)), float64(events))
	m["coord.worker_busy_share"] = ratio(float64(busy), workerTotal)
	m["coord.worker_idle_share"] = ratio(float64(idle), workerTotal)
	m["coord.worker_blocked_share"] = ratio(float64(blocked), workerTotal)
	m["coord.coord_blocked_share"] = ratio(float64(st.CoordBlocked), float64(st.Wall))
}

// startTracer switches the traced variant's instruments on. Call before
// building the fabric.
func (e *repEnv) startTracer(numHosts, shards int) {
	if e.cfg.Variant != variantTraced {
		return
	}
	e.tr = newTracer(numHosts, shards)
	pkt.EnablePoolStats(true)
}

// --- dumbbell-static -----------------------------------------------------

// dumbbellSpecs generates the closed-loop inputs: host 0 is the
// receiver; sender 1 feeds queue 1, senders 2..5 feed queue 2. The seed
// jitters sizes +-10% around 1 MB and the senders' first starts.
func dumbbellSpecs(seed int64, q1Flows, q2Flows int) []workload.FlowSpec {
	r := rand.New(rand.NewSource(seed))
	var specs []workload.FlowSpec
	for sender := 1; sender <= 5; sender++ {
		n, service := q2Flows, 1
		if sender == 1 {
			n, service = q1Flows, 0
		}
		for i := 0; i < n; i++ {
			spec := workload.FlowSpec{
				Src: sender, Dst: 0, Service: service,
				Size: int64(float64(dumbbellFlowSize) * (0.9 + 0.2*r.Float64())),
			}
			if i == 0 {
				spec.Start = time.Duration(r.Int63n(int64(100 * time.Microsecond)))
			}
			specs = append(specs, spec)
		}
	}
	return specs
}

// dumbbellProfile is the Fig. 8 bottleneck: DWRR over two equal queues,
// PMSB with the 12-packet port threshold, a 250-packet buffer.
func dumbbellProfile() topo.PortProfile {
	return topo.PortProfile{
		Weights:      topo.EqualWeights(2),
		NewSchedWith: topo.DWRRSched,
		NewMarker:    newPMSB,
		BufferBytes:  bufferBytes,
	}
}

// runDumbbell runs the closed-loop dumbbell with bottleneck profile pp.
func runDumbbell(e *repEnv, pp topo.PortProfile) error {
	e.startTracer(6, 1)
	fab := e.buildPhase(pp, func(pp topo.PortProfile) *fabric {
		eng := sim.NewEngine()
		d := topo.NewDumbbell(eng, topo.DumbbellConfig{Senders: 5, Bottleneck: pp})
		return &fabric{
			hosts:    append([]*netsim.Host{d.Recv}, d.Senders...),
			switches: []*netsim.Switch{d.Switch},
			engines:  []*sim.Engine{eng},
			shardOf:  func(pkt.NodeID) int { return 0 },
		}
	})
	specs := e.generate(func() []workload.FlowSpec {
		return dumbbellSpecs(e.cfg.Seed, e.scaled(dumbbellQ1Flows), e.scaled(dumbbellQ2Flows))
	})
	flows := e.install(fab, specs, transport.Config{}, true)

	// Both classes offer the same bytes, so the share over the whole run
	// is 0.5 by construction. Sample it while both are still active.
	var total int64
	for _, s := range specs {
		total += s.Size
	}
	expected := time.Duration(float64(total) * 8 / float64(linkRate) * float64(time.Second))
	var q1, q2 int64
	fab.engines[0].ScheduleAt(expected*6/10, func() {
		for i, f := range flows {
			if specs[i].Service == 0 {
				q1 += f.Receiver.Goodput()
			} else {
				q2 += f.Receiver.Goodput()
			}
		}
	})

	e.beginTimed()
	fab.runUntil(3 * expected)
	e.endTimed(fab.processed())

	e.collect(fab, flows)
	share := ratio(float64(q1), float64(q1+q2))
	e.res.check("dumbbell.queue1_share", share >= 0.48 && share <= 0.52,
		"queue 1 carried %.3f of the bytes at 60%% of the run, want 0.50+-0.02", share)
	e.finishTraced(fab)
	return nil
}

// --- fat-trees -----------------------------------------------------------

// fatTreeConfig is the k-ary fabric all three fat-tree workloads use.
// The nanosecond cable skew makes every cross-shard tie distinguishable,
// the precondition for a sharded run to reproduce the serial one
// exactly (topo.FatTreeConfig.FabricDelaySkew).
func fatTreeConfig(k int, pp topo.PortProfile) topo.FatTreeConfig {
	return topo.FatTreeConfig{K: k, FabricDelaySkew: time.Nanosecond, Ports: pp}
}

func fatTreeFabric(ft *topo.FatTree, engines []*sim.Engine, coord *sim.Coordinator, part *topo.Partition) *fabric {
	fab := &fabric{
		hosts:    ft.Hosts,
		engines:  engines,
		coord:    coord,
		overflow: ft.ArenaOverflow(),
		shardOf:  func(pkt.NodeID) int { return 0 },
	}
	for _, tier := range [][]*netsim.Switch{ft.Edges, ft.Aggs, ft.Cores} {
		fab.switches = append(fab.switches, tier...)
	}
	if part != nil && len(engines) > 1 {
		fab.shardOf = func(id pkt.NodeID) int {
			s, _ := part.ShardOf(id)
			return s
		}
	}
	return fab
}

func poissonSpecs(seed int64, hosts, flows int, load float64) []workload.FlowSpec {
	return workload.Poisson(workload.PoissonConfig{
		Load: load, LinkRate: linkRate, Hosts: hosts,
		Dist: workload.Fixed(flowSize), Services: services, NumFlows: flows, Seed: seed,
	})
}

// horizon leaves every flow a second past the last arrival, enough for
// several RTO back-offs.
func horizon(specs []workload.FlowSpec) time.Duration {
	return specs[len(specs)-1].Start + time.Second
}

// fatTreeRun is one fat-tree workload's shape.
type fatTreeRun struct {
	k int
	// shards 0 runs on one serial sim.Engine; n > 0 on a sim.Coordinator
	// with n shards (ParChannel, no stealing).
	shards int
	ports  topo.PortProfile
	flows  int // at scale 1
	load   float64
}

// The k=8 workloads build one scheduler and one marker per port; k=32
// uses the memory-lean profile (slab-carved DWRR, one shared stateless
// marker) and a fixed shard count, so the partition — and with it the
// simulated result — does not depend on the machine.
var (
	fatTree8 = fatTreeRun{k: 8, flows: fatTree8Flows, load: 0.3, ports: topo.PortProfile{
		Weights:      topo.EqualWeights(services),
		NewSchedWith: topo.DWRRSched,
		NewMarker:    newPMSB,
		BufferBytes:  bufferBytes,
	}}
	fatTree32 = fatTreeRun{k: 32, shards: fatTree32Shards, flows: fatTree32Flows, load: 0.04, ports: topo.PortProfile{
		Weights:       topo.EqualWeights(services),
		NewSchedBlock: topo.DWRRBlocks(),
		SharedMarker:  newPMSB(),
		BufferBytes:   bufferBytes,
	}}
)

// buildFatTree builds r's fabric, instrumented when the rep is traced.
func (e *repEnv) buildFatTree(r fatTreeRun) *fabric {
	shards := r.shards
	if shards == 0 {
		shards = 1
	}
	e.startTracer(r.k*r.k*r.k/4, shards)
	return e.buildPhase(r.ports, func(pp topo.PortProfile) *fabric {
		cfg := fatTreeConfig(r.k, pp)
		if r.shards == 0 {
			eng := sim.NewEngine()
			return fatTreeFabric(topo.NewFatTree(eng, cfg), []*sim.Engine{eng}, nil, nil)
		}
		coord := sim.NewCoordinator()
		coord.SetMode(sim.ParChannel)
		if e.traced() {
			coord.EnableRuntimeStats()
		}
		ft, part := topo.NewFatTreeSharded(coord, cfg, r.shards)
		engines := make([]*sim.Engine, r.shards)
		for i, s := range coord.Shards() {
			engines[i] = s.Engine()
		}
		return fatTreeFabric(ft, engines, coord, part)
	})
}

// runFatTree runs r's open-loop Poisson workload to completion.
func runFatTree(e *repEnv, r fatTreeRun) error {
	fab := e.buildFatTree(r)
	specs := e.generate(func() []workload.FlowSpec {
		return poissonSpecs(e.cfg.Seed, len(fab.hosts), e.scaled(r.flows), r.load)
	})
	flows := e.install(fab, specs, transport.Config{InitWindow: 16}, false)
	e.beginTimed()
	fab.runUntil(horizon(specs))
	e.endTimed(fab.processed())
	e.collect(fab, flows)
	e.finishTraced(fab)
	return nil
}

func runFatTree32Sharded(e *repEnv) error {
	r := fatTree32
	if e.cfg.Variant == variantRef {
		r.shards = 0 // the serial reference of the same inputs
	}
	return runFatTree(e, r)
}

// --- fattree8-obs --------------------------------------------------------

func runFatTree8Obs(e *repEnv) error {
	fab := e.buildFatTree(fatTree8)
	m := e.res.Layer

	// The reference variant runs the same inputs with no bus: the
	// nil-probe path every other workload takes.
	var bus *obs.Bus
	var sw *obs.SpillWriter
	var file *os.File
	if e.cfg.Variant != variantRef {
		path := filepath.Join(e.cfg.OutDir, fmt.Sprintf("fattree8-obs.%d.trace.bin", os.Getpid()))
		var err error
		if file, err = os.Create(path); err != nil {
			return fmt.Errorf("create trace file: %w", err)
		}
		defer os.Remove(path)
		defer file.Close()
		sw = obs.NewSpillWriter(file, obs.FormatBinary)
		bus = obs.NewTraceBus(8192)
		bus.Ring().SetSpill(sw)
		for _, s := range fab.switches {
			s.Observe(bus)
		}
	}
	specs := e.generate(func() []workload.FlowSpec {
		return poissonSpecs(e.cfg.Seed, len(fab.hosts), e.scaled(fatTree8ObsFlows), fatTree8.load)
	})
	flows := e.install(fab, specs, transport.Config{InitWindow: 16, Obs: bus}, false)

	e.beginTimed()
	fab.runUntil(horizon(specs))
	if bus == nil {
		e.endTimed(fab.processed())
		e.collect(fab, flows)
		return nil
	}
	write := time.Since(e.timed)

	// Flush: ring remainder to the codec, codec to the file.
	t := time.Now()
	if err := bus.Ring().FlushSpill(); err != nil {
		return fmt.Errorf("flush spill: %w", err)
	}
	if err := sw.Close(); err != nil {
		return fmt.Errorf("close spill: %w", err)
	}
	if err := file.Sync(); err != nil {
		return fmt.Errorf("sync trace file: %w", err)
	}
	flush := time.Since(t)

	// Read back: one streaming reduction over the whole file, one range
	// read over the middle tenth of simulated time.
	t = time.Now()
	st := obs.NewStreamStats(obs.StreamOptions{Counts: true, Depths: true, MarkBin: 100 * time.Microsecond})
	if _, err := file.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("rewind trace file: %w", err)
	}
	if err := st.Reduce(file); err != nil {
		return fmt.Errorf("reduce trace: %w", err)
	}
	if _, err := file.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("rewind trace file: %w", err)
	}
	span := st.MaxT - st.MinT
	mid, err := obs.ReadTraceRange(file, st.MinT+span*45/100, st.MinT+span*55/100)
	if err != nil {
		return fmt.Errorf("range-read trace: %w", err)
	}
	read := time.Since(t)
	e.tr.phase(layerObs, opRead, t)
	e.endTimed(fab.processed())

	e.collect(fab, flows)
	var tx, marks, drops int64
	for _, s := range fab.switches {
		for i := 0; i < s.NumPorts(); i++ {
			p := s.Port(i)
			tx += p.TxPackets()
			marks += p.MarkedPackets()
			drops += p.DropPackets()
		}
	}
	ring := bus.Ring()
	e.res.check("obs.ring_dropped", ring.Dropped() == 0, "ring truncated %d events despite the spill", ring.Dropped())
	e.res.check("obs.readback_events", uint64(st.Events) == ring.Total(), "read back %d events, bus recorded %d", st.Events, ring.Total())
	e.res.check("obs.readback_tx", int64(st.Kinds[obs.KindDequeue]) == tx, "read back %d dequeues, ports sent %d", st.Kinds[obs.KindDequeue], tx)
	e.res.check("obs.readback_marks", int64(st.Kinds[obs.KindMark]) == marks, "read back %d marks, ports marked %d", st.Kinds[obs.KindMark], marks)
	e.res.check("obs.readback_drops", int64(st.Kinds[obs.KindDrop]) == drops, "read back %d drops, ports dropped %d", st.Kinds[obs.KindDrop], drops)
	e.res.check("obs.range_read", len(mid) > 0 && len(mid) < st.Events, "middle tenth held %d of %d events", len(mid), st.Events)

	info, err := file.Stat()
	if err != nil {
		return fmt.Errorf("stat trace file: %w", err)
	}
	m["obs.events"] = float64(ring.Total())
	m["obs.dropped"] = float64(ring.Dropped())
	m["obs.trace_bytes"] = float64(info.Size())
	m["obs.bytes_per_event"] = ratio(float64(info.Size()), float64(ring.Total()))
	m["obs.write_wall_s"] = write.Seconds()
	m["obs.flush_s"] = flush.Seconds()
	m["obs.read_wall_s"] = read.Seconds()
	m["obs.read_events_per_s"] = ratio(float64(st.Events+len(mid)), read.Seconds())
	if e.traced() {
		m["obs.emit_ns"] = emitCost(e.tr.windows[0])
	}
	e.finishTraced(fab)
	return nil
}

// emitCost replays the recorded window into a bare port probe feeding a
// discarded spill: the cost of one emit with no simulation around it.
func emitCost(w *window) float64 {
	if len(w.recs) == 0 {
		return 0
	}
	bus := obs.NewTraceBus(8192)
	sw := obs.NewSpillWriter(io.Discard, obs.FormatBinary)
	bus.Ring().SetSpill(sw)
	probe := bus.ObservePort(obs.PortID{Node: 1, Port: 0}, services)
	p := &pkt.Packet{Flow: 1, Size: units.MTU}
	t := time.Now()
	for i, rec := range w.recs {
		p.ID = uint64(i)
		now := time.Duration(rec.now)
		probe.Enqueue(now, i%services, p, 3*units.MTU, units.MTU)
		probe.Dequeue(now+time.Duration(rec.ser), i%services, p, 2*units.MTU, 0)
	}
	return float64(time.Since(t)) / float64(2*len(w.recs))
}
