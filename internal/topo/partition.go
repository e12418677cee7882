package topo

import (
	"fmt"
	"time"

	"pmsb/internal/netsim"
	"pmsb/internal/pkt"
	"pmsb/internal/sim"
	"pmsb/internal/units"
)

// Partition records how a sharded builder split a topology: which shard
// every node landed on and every directed link that crosses the cut.
// Each cut link's delay bounds the coordinator's clock on its shard pair
// and therefore the parallel engine's window width — a partition is only
// worth running if those delays are comfortably positive.
type Partition struct {
	// Shards is the shard count the topology was built for.
	Shards int
	// Cuts lists every directed cross-shard link, in wiring order.
	Cuts []CutEdge

	shardOf map[pkt.NodeID]int
}

// CutEdge is one directed link crossing the partition.
type CutEdge struct {
	// From and To are the link's endpoint node IDs.
	From, To pkt.NodeID
	// SrcShard and DstShard are the shards those endpoints live on.
	SrcShard, DstShard int
	// Delay is the link's propagation delay (bounds the pair's channel
	// clock).
	Delay time.Duration
}

// ShardOf returns the shard a node was assigned to.
func (p *Partition) ShardOf(id pkt.NodeID) (int, bool) {
	s, ok := p.shardOf[id]
	return s, ok
}

func (p *Partition) assign(id pkt.NodeID, shard int) {
	if prev, ok := p.shardOf[id]; ok {
		panic(fmt.Sprintf("topo: node %d assigned to shard %d and %d", id, prev, shard))
	}
	if shard < 0 || shard >= p.Shards {
		panic(fmt.Sprintf("topo: node %d assigned to shard %d of %d", id, shard, p.Shards))
	}
	p.shardOf[id] = shard
}

func (p *Partition) mustShardOf(id pkt.NodeID) int {
	s, ok := p.shardOf[id]
	if !ok {
		panic(fmt.Sprintf("topo: node %d linked before assignment", id))
	}
	return s
}

// shardBuilder is what the fat-tree's one wiring routine is
// parameterised by: the engines nodes live on, the node->shard
// assignment, and how a link between two nodes is made — local when
// their shards match (scheduled directly on the shard engine), boundary
// otherwise (routed through the coordinator's deterministic merge and
// recorded as a cut edge). A serial build is the one-shard case on the
// caller's engine: no coordinator, no partition to record, every link
// local.
type shardBuilder struct {
	engs   []*sim.Engine
	coord  *sim.Coordinator // nil for a serial build
	shards []*sim.Shard     // nil for a serial build
	part   *Partition       // nil for a serial build
}

func serialBuilder(eng *sim.Engine) *shardBuilder {
	return &shardBuilder{engs: []*sim.Engine{eng}}
}

func newShardBuilder(coord *sim.Coordinator, shards int) *shardBuilder {
	if shards < 1 {
		panic(fmt.Sprintf("topo: shard count must be >= 1, got %d", shards))
	}
	sb := &shardBuilder{
		coord: coord,
		part: &Partition{
			Shards:  shards,
			shardOf: make(map[pkt.NodeID]int),
		},
	}
	for i := 0; i < shards; i++ {
		sh := coord.NewShard()
		sb.shards = append(sb.shards, sh)
		sb.engs = append(sb.engs, sh.Engine())
	}
	return sb
}

// fabric returns the Fabric header of the topology being wired; the
// routine fills in Hosts and Switches.
func (sb *shardBuilder) fabric() Fabric {
	return Fabric{Eng: sb.engs[0], coord: sb.coord, part: sb.part}
}

// engine returns the shard's engine (entities on that shard must
// schedule exclusively against it).
func (sb *shardBuilder) engine(shard int) *sim.Engine { return sb.engs[shard] }

// assign places a node on a shard; every node must be assigned exactly
// once, before any link touching it is wired.
func (sb *shardBuilder) assign(id pkt.NodeID, shard int) {
	if sb.part != nil {
		sb.part.assign(id, shard)
	}
}

func (sb *shardBuilder) shardOf(id pkt.NodeID) int {
	if sb.part == nil {
		return 0
	}
	return sb.part.mustShardOf(id)
}

// link wires the directed link from -> to, delivering to dst, by value
// (the fat-tree embeds links in arena port slots). Both endpoints must
// already be assigned; the link is local or boundary depending on
// whether their shards match.
func (sb *shardBuilder) link(from, to pkt.NodeID, rate units.Rate,
	delay time.Duration, dst netsim.Node) netsim.Link {
	sf, st := sb.shardOf(from), sb.shardOf(to)
	if sf == st {
		return netsim.LocalLink(sb.engs[sf], rate, delay, dst)
	}
	b := sb.coord.Boundary(sb.shards[sf], sb.shards[st], delay)
	sb.part.Cuts = append(sb.part.Cuts, CutEdge{
		From: from, To: to, SrcShard: sf, DstShard: st, Delay: delay,
	})
	return netsim.BoundaryLink(b, rate, dst)
}
