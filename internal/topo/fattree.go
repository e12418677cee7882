package topo

import (
	"time"

	"pmsb/internal/netsim"
	"pmsb/internal/pkt"
	"pmsb/internal/sched"
	"pmsb/internal/sim"
	"pmsb/internal/units"
)

// FatTreeConfig parametrizes a k-ary fat-tree (Al-Fares et al.): k pods,
// each with k/2 edge and k/2 aggregation switches, (k/2)^2 cores, and
// k^3/4 hosts. All links share one rate, so the fabric is full
// bisection; it is the scale topology the event engine is benchmarked
// on (BenchmarkFatTree).
type FatTreeConfig struct {
	// K is the switch radix; must be even (default 4). k=8 yields 128
	// hosts, 32 edge, 32 aggregation, and 16 core switches; k=32 yields
	// 8192 hosts and ~49k ports.
	K int
	// Rate is the capacity of every link (default 10 Gbps).
	Rate units.Rate
	// FabricDelaySkew, when nonzero, gives the agg<->core cable between
	// pod p and core c the delay
	// fatTreeDelay + (1+p*nCores+c)*FabricDelaySkew (both directions)
	// instead of a uniform fatTreeDelay — every fabric cable gets a
	// unique length, and none matches the pod-internal delay.
	// Differential tests use a nanosecond-scale skew so no two
	// cross-shard arrivals can tie on (at, schedAt) through different
	// channels, which is the precondition for the sharded tie-break to
	// reproduce the serial one exactly (see the lane discussion in
	// internal/sim). Physically it models unequal cable runs to the
	// core tier; BaseRTT ignores it (it is sub-precision noise there).
	FabricDelaySkew time.Duration
	// Ports configures every switch port (required).
	Ports PortProfile
}

// fatTreeDelay is the one-way propagation delay of every fat-tree link
// (before FabricDelaySkew).
const fatTreeDelay = time.Microsecond

// FatTree is the instantiated fabric.
type FatTree struct {
	Fabric
	// Edges, Aggs and Cores are the three tiers of Fabric.Switches.
	// Edges and Aggs are pod-major: pod p owns indices
	// [p*k/2, (p+1)*k/2).
	Edges, Aggs, Cores []*netsim.Switch

	cfg    FatTreeConfig
	arenas []*netsim.Arena
}

// ftShape holds the derived fat-tree dimensions.
type ftShape struct {
	k, half, pods, hostsPerPod, nHosts, nCores int
}

// shape applies the config defaults and derives the dimensions.
func (cfg *FatTreeConfig) shape() ftShape {
	if cfg.K == 0 {
		cfg.K = 4
	}
	if cfg.K%2 != 0 {
		panic("topo: fat-tree K must be even")
	}
	if cfg.Rate == 0 {
		cfg.Rate = 10 * units.Gbps
	}
	k := cfg.K
	half := k / 2
	return ftShape{
		k: k, half: half, pods: k,
		hostsPerPod: half * half,
		nHosts:      k * half * half,
		nCores:      half * half,
	}
}

// ftAlloc is the fat-tree builders' per-shard allocation state: one
// netsim.Arena per shard (so no two shards' port state shares a cache
// line), one NIC FIFO slab per shard, and — when the profile opts in
// via NewSchedBlock — one scheduler slab dispenser per shard. The
// arenas are sized exactly from the shard's pod and core assignment,
// so a correctly wired build never falls back to the heap.
type ftAlloc struct {
	pp     *PortProfile
	engs   []*sim.Engine
	arenas []*netsim.Arena
	disp   []func() sched.Scheduler
	nic    []*sched.FIFOBlock
}

func newFTAlloc(pp *PortProfile, engs []*sim.Engine, sh ftShape,
	podShard, coreShard func(int) int) *ftAlloc {
	pp.check()
	shards := len(engs)
	podsOf := make([]int, shards)
	coresOf := make([]int, shards)
	for p := 0; p < sh.pods; p++ {
		podsOf[podShard(p)]++
	}
	for c := 0; c < sh.nCores; c++ {
		coresOf[coreShard(c)]++
	}
	fa := &ftAlloc{
		pp:     pp,
		engs:   engs,
		arenas: make([]*netsim.Arena, shards),
		disp:   make([]func() sched.Scheduler, shards),
		nic:    make([]*sched.FIFOBlock, shards),
	}
	for s := 0; s < shards; s++ {
		// Per pod: k^2 switch ports (k/2 edges and k/2 aggs of radix k);
		// per core: one port per pod.
		swPorts := podsOf[s]*sh.k*sh.k + coresOf[s]*sh.pods
		hosts := podsOf[s] * sh.hostsPerPod
		fa.arenas[s] = netsim.NewArena(netsim.ArenaSpec{
			Ports:    hosts + swPorts,
			Hosts:    hosts,
			Switches: podsOf[s]*sh.k + coresOf[s],
			PortRefs: swPorts,
		})
		if pp.NewSchedBlock != nil {
			fa.disp[s] = pp.NewSchedBlock(engs[s], pp.Weights, swPorts)
		}
		fa.nic[s] = sched.NewFIFOBlock(hosts)
	}
	return fa
}

// newPort carves one switch port from shard s's arena.
func (fa *ftAlloc) newPort(s int, link netsim.Link) *netsim.Port {
	var sc sched.Scheduler
	if fa.disp[s] != nil {
		sc = fa.disp[s]()
	} else {
		sc = fa.pp.scheduler(fa.engs[s])
	}
	return fa.arenas[s].NewPort(link, netsim.PortConfig{
		Sched:       sc,
		Marker:      fa.pp.marker(),
		BufferBytes: fa.pp.BufferBytes,
	})
}

// newHost carves a host with a slab-FIFO NIC transmitting on link.
func (fa *ftAlloc) newHost(s int, id pkt.NodeID, link netsim.Link) *netsim.Host {
	h := fa.arenas[s].NewHost(fa.engs[s], id)
	h.AttachNICPort(fa.arenas[s].NewPort(link, netsim.PortConfig{Sched: fa.nic[s].Next()}))
	return h
}

// newSwitch carves a switch with a portCap-entry port table.
func (fa *ftAlloc) newSwitch(s int, id pkt.NodeID, portCap int) *netsim.Switch {
	return fa.arenas[s].NewSwitch(fa.engs[s], id, portCap)
}

// NewFatTree wires the fabric on one engine. Every switch port gets the
// configured scheduler/marker profile; host NICs are plain FIFOs. All
// node and queue state is carved from one arena (see netsim.Arena), so
// building even a k=32 fabric costs a handful of slab allocations.
//
// Port layout (half = k/2):
//   - edge: ports 0..half-1 down to hosts, half..k-1 up to the pod's
//     aggregation switches (agg j at port half+j).
//   - agg j (index within its pod): ports 0..half-1 down to the pod's
//     edge switches, half..k-1 up to cores j*half..j*half+half-1.
//   - core: port p down to pod p (via the one agg it attaches to).
func NewFatTree(eng *sim.Engine, cfg FatTreeConfig) *FatTree {
	return wireFatTree(serialBuilder(eng), cfg)
}

// NewFatTreeSharded wires the same fat-tree across a coordinator's
// shards. Pods are block-partitioned — pod p (its hosts, edge and
// aggregation switches) lands on shard p*shards/k — and the cores are
// block-distributed the same way, so the only cross-shard links are
// agg<->core cables between different blocks (every one with delay
// fatTreeDelay = the lookahead). shards must not exceed the pod count.
// FatTree.Eng is shard 0's engine; drive with Run. Each shard's node
// state comes from its own arena, so shard-hot state never false-shares
// a cache line with a neighbour's.
func NewFatTreeSharded(coord *sim.Coordinator, cfg FatTreeConfig, shards int) (*FatTree, *Partition) {
	sb := newShardBuilder(coord, shards)
	return wireFatTree(sb, cfg), sb.part
}

func wireFatTree(sb *shardBuilder, cfg FatTreeConfig) *FatTree {
	sh := cfg.shape()
	k, half, pods := sh.k, sh.half, sh.pods
	hostsPerPod, nHosts, nCores := sh.hostsPerPod, sh.nHosts, sh.nCores
	shards := len(sb.engs)
	if shards > pods {
		panic("topo: fat-tree shard count must not exceed the pod count")
	}
	podShard := func(p int) int { return blockOf(p, pods, shards) }
	coreShard := func(c int) int { return blockOf(c, nCores, shards) }
	fa := newFTAlloc(&cfg.Ports, sb.engs, sh, podShard, coreShard)

	ft := &FatTree{Fabric: sb.fabric(), cfg: cfg, arenas: fa.arenas}
	ft.Hosts = make([]*netsim.Host, 0, nHosts)
	ft.Switches = make([]*netsim.Switch, 2*pods*half+nCores)
	ft.Edges = ft.Switches[: pods*half : pods*half]
	ft.Aggs = ft.Switches[pods*half : 2*pods*half : 2*pods*half]
	ft.Cores = ft.Switches[2*pods*half:]
	base := switchIDBase(nHosts)
	for i := range ft.Edges {
		s := podShard(i / half)
		eid, aid := pkt.NodeID(base+1+i), pkt.NodeID(2*base+1+i)
		sb.assign(eid, s)
		sb.assign(aid, s)
		ft.Edges[i] = fa.newSwitch(s, eid, k)
		ft.Aggs[i] = fa.newSwitch(s, aid, k)
	}
	for i := range ft.Cores {
		id := pkt.NodeID(3*base + 1 + i)
		sb.assign(id, coreShard(i))
		ft.Cores[i] = fa.newSwitch(coreShard(i), id, pods)
	}

	link := func(from, to netsim.Node) netsim.Link {
		return sb.link(from.NodeID(), to.NodeID(), cfg.Rate, fatTreeDelay, to)
	}
	// One cable-length formula per (pod, core) pair, both directions;
	// these are the cut links of a sharded build, so a skew here also
	// diversifies the coordinator's per-channel delays.
	fabricLink := func(p, c int, from, to netsim.Node) netsim.Link {
		d := fatTreeDelay + time.Duration(1+p*nCores+c)*cfg.FabricDelaySkew
		return sb.link(from.NodeID(), to.NodeID(), cfg.Rate, d, to)
	}

	// Hosts and host<->edge links (pod-local, never cut). Host i lives
	// in pod i/hostsPerPod on edge (i%hostsPerPod)/half at down-port
	// i%half.
	for i := 0; i < nHosts; i++ {
		p := i / hostsPerPod
		s := podShard(p)
		edge := ft.Edges[p*half+(i%hostsPerPod)/half]
		id := pkt.NodeID(i + 1)
		sb.assign(id, s)
		// The host does not exist yet, so its NIC link is wired by ID.
		h := fa.newHost(s, id, sb.link(id, edge.NodeID(), cfg.Rate, fatTreeDelay, edge))
		edge.AddPort(fa.newPort(s, link(edge, h)))
		ft.Hosts = append(ft.Hosts, h)
	}

	// Edge<->agg links, pod by pod (pod-local, never cut), interleaved
	// so each switch's ports appear in index order (edge down-ports
	// were added above).
	for p := 0; p < pods; p++ {
		s := podShard(p)
		for e := 0; e < half; e++ {
			edge := ft.Edges[p*half+e]
			for j := 0; j < half; j++ {
				edge.AddPort(fa.newPort(s, link(edge, ft.Aggs[p*half+j])))
			}
		}
		for j := 0; j < half; j++ {
			agg := ft.Aggs[p*half+j]
			for e := 0; e < half; e++ {
				agg.AddPort(fa.newPort(s, link(agg, ft.Edges[p*half+e])))
			}
		}
	}
	// Agg<->core links, the partition's only cut edges: agg j (in every
	// pod) owns cores j*half..j*half+half-1.
	for p := 0; p < pods; p++ {
		for j := 0; j < half; j++ {
			agg := ft.Aggs[p*half+j]
			for i := 0; i < half; i++ {
				agg.AddPort(fa.newPort(podShard(p),
					fabricLink(p, j*half+i, agg, ft.Cores[j*half+i])))
			}
		}
	}
	// Core down-ports in pod order, so port p reaches pod p.
	for c, core := range ft.Cores {
		for p := 0; p < pods; p++ {
			core.AddPort(fa.newPort(coreShard(c),
				fabricLink(p, c, core, ft.Aggs[p*half+c/half])))
		}
	}

	ft.installRoutes(sh)
	return ft
}

// installRoutes wires the three tiers' routing functions. Up-paths use
// flow-level ECMP;
// the agg tier salts the hash so the core choice decorrelates from the
// edge tier's agg choice (same hash mod the same divisor at both tiers
// would polarize).
func (ft *FatTree) installRoutes(sh ftShape) {
	half, hostsPerPod, nHosts := sh.half, sh.hostsPerPod, sh.nHosts
	hostPod := func(dst pkt.NodeID) int { return (int(dst) - 1) / hostsPerPod }
	hostEdge := func(dst pkt.NodeID) int { return ((int(dst) - 1) % hostsPerPod) / half }
	hostDown := func(dst pkt.NodeID) int { return (int(dst) - 1) % half }
	for i, edge := range ft.Edges {
		p, e := i/half, i%half
		edge.SetRoute(func(pk *pkt.Packet) int {
			if int(pk.Dst) < 1 || int(pk.Dst) > nHosts {
				return -1
			}
			if hostPod(pk.Dst) == p && hostEdge(pk.Dst) == e {
				return hostDown(pk.Dst)
			}
			return half + int(ecmpHash(uint64(pk.Flow))%uint64(half))
		})
	}
	for i, agg := range ft.Aggs {
		p := i / half
		agg.SetRoute(func(pk *pkt.Packet) int {
			if int(pk.Dst) < 1 || int(pk.Dst) > nHosts {
				return -1
			}
			if hostPod(pk.Dst) == p {
				return hostEdge(pk.Dst)
			}
			return half + int(ecmpHash(uint64(pk.Flow)^ecmpAggSalt)%uint64(half))
		})
	}
	for _, core := range ft.Cores {
		core.SetRoute(func(pk *pkt.Packet) int {
			if int(pk.Dst) < 1 || int(pk.Dst) > nHosts {
				return -1
			}
			return hostPod(pk.Dst)
		})
	}
}

// ecmpAggSalt decorrelates the aggregation tier's ECMP hash from the
// edge tier's.
const ecmpAggSalt = 0x5bd1e995

// switchIDBase returns the node-ID stride for the fat-tree's switch
// tiers: edges start at base+1, aggs at 2*base+1, cores at 3*base+1.
// Hosts occupy 1..nHosts, so the base is the smallest multiple of 1000
// at or above nHosts — the historical 1001/2001/3001 layout for k <= 8,
// and collision-free for k = 16 and beyond (1024+ hosts).
func switchIDBase(nHosts int) int {
	return 1000 * ((nHosts + 999) / 1000)
}

// blockOf maps item i of n onto one of shards contiguous blocks.
func blockOf(i, n, shards int) int { return i * shards / n }

// ArenaOverflow reports how many node objects missed the builders'
// arena reservations (0 for a correctly sized build — asserted by the
// wiring tests).
func (ft *FatTree) ArenaOverflow() int {
	total := 0
	for _, a := range ft.arenas {
		total += a.Overflow()
	}
	return total
}

// BaseRTT returns the unloaded inter-pod RTT estimate (host -> edge ->
// agg -> core -> agg -> edge -> host and back): the value used for ECN
// threshold derivation at fat-tree scale.
func (ft *FatTree) BaseRTT() time.Duration {
	// 6 links each way.
	prop := 12 * fatTreeDelay
	dataSer := 6 * units.Serialization(units.MTU, ft.cfg.Rate)
	ackSer := 6 * units.Serialization(units.AckSize, ft.cfg.Rate)
	return prop + dataSer + ackSer
}
