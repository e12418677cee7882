package topo

import (
	"time"

	"pmsb/internal/netsim"
	"pmsb/internal/pkt"
	"pmsb/internal/sim"
	"pmsb/internal/units"
)

// LeafSpineConfig parametrizes the large-scale fabric. The paper's
// setup: 4 leaves, 4 spines, 12 hosts per leaf, 10 Gbps links, ECMP
// (per flow: all packets of a flow take one spine). Every link has a
// one-way propagation delay of leafSpineDelay.
type LeafSpineConfig struct {
	// Leaves is the number of leaf (ToR) switches (default 4).
	Leaves int
	// Spines is the number of spine (core) switches (default 4).
	Spines int
	// HostsPerLeaf is the number of hosts per leaf (default 12).
	HostsPerLeaf int
	// Rate is the capacity of every link (default 10 Gbps).
	Rate units.Rate
	// Ports configures every switch port (required).
	Ports PortProfile
}

// leafSpineDelay is the one-way propagation delay of every leaf-spine
// link.
const leafSpineDelay = 5 * time.Microsecond

// defaults fills the zero fields with the paper's setup.
func (cfg *LeafSpineConfig) defaults() {
	if cfg.Leaves == 0 {
		cfg.Leaves = 4
	}
	if cfg.Spines == 0 {
		cfg.Spines = 4
	}
	if cfg.HostsPerLeaf == 0 {
		cfg.HostsPerLeaf = 12
	}
	if cfg.Rate == 0 {
		cfg.Rate = 10 * units.Gbps
	}
}

// LeafSpine is the instantiated fabric.
type LeafSpine struct {
	Fabric
	// Leaves and Spines are the two tiers of Fabric.Switches.
	Leaves, Spines []*netsim.Switch

	cfg LeafSpineConfig
}

// NewLeafSpine wires the fabric on one engine. Every switch port
// (host-facing and fabric-facing) gets the configured scheduler/marker
// profile; host NICs are plain FIFOs. The leaf-spine has no sharded
// form: split hosts-vs-fabric it ran slower than serial and broke
// same-instant ties differently (DESIGN.md section 8).
func NewLeafSpine(eng *sim.Engine, cfg LeafSpineConfig) *LeafSpine {
	cfg.defaults()
	ls := &LeafSpine{Fabric: Fabric{Eng: eng}, cfg: cfg}
	nHosts := cfg.Leaves * cfg.HostsPerLeaf
	link := func(to netsim.Node) *netsim.Link { return netsim.NewLink(eng, cfg.Rate, leafSpineDelay, to) }

	for l := 0; l < cfg.Leaves; l++ {
		ls.Switches = append(ls.Switches, netsim.NewSwitch(eng, pkt.NodeID(1001+l)))
	}
	for s := 0; s < cfg.Spines; s++ {
		ls.Switches = append(ls.Switches, netsim.NewSwitch(eng, pkt.NodeID(2001+s)))
	}
	ls.Leaves, ls.Spines = ls.Switches[:cfg.Leaves:cfg.Leaves], ls.Switches[cfg.Leaves:]

	// Hosts and host<->leaf links.
	for i := 0; i < nHosts; i++ {
		leaf := ls.Leaves[i/cfg.HostsPerLeaf]
		h := netsim.NewHost(eng, pkt.NodeID(i+1))
		h.AttachNIC(link(leaf))
		// Leaf down-port to this host: port index i % HostsPerLeaf.
		leaf.AddPort(cfg.Ports.newPort(eng, link(h)))
		ls.Hosts = append(ls.Hosts, h)
	}

	// Leaf up-ports (indices HostsPerLeaf..HostsPerLeaf+Spines-1) and
	// spine down-ports (index = leaf number).
	for _, leaf := range ls.Leaves {
		for _, spine := range ls.Spines {
			leaf.AddPort(cfg.Ports.newPort(eng, link(spine)))
		}
	}
	for _, spine := range ls.Spines {
		for _, leaf := range ls.Leaves {
			spine.AddPort(cfg.Ports.newPort(eng, link(leaf)))
		}
	}

	// Routing.
	hostLeaf := func(dst pkt.NodeID) int { return (int(dst) - 1) / cfg.HostsPerLeaf }
	hostDown := func(dst pkt.NodeID) int { return (int(dst) - 1) % cfg.HostsPerLeaf }
	for l, leaf := range ls.Leaves {
		l := l
		leaf.SetRoute(func(p *pkt.Packet) int {
			if int(p.Dst) < 1 || int(p.Dst) > nHosts {
				return -1
			}
			if hostLeaf(p.Dst) == l {
				return hostDown(p.Dst)
			}
			// ECMP over spines by flow hash: all packets of a flow take
			// one path (no reordering), different flows spread out.
			return cfg.HostsPerLeaf + int(ecmpHash(uint64(p.Flow))%uint64(cfg.Spines))
		})
	}
	for _, spine := range ls.Spines {
		spine.SetRoute(func(p *pkt.Packet) int {
			if int(p.Dst) < 1 || int(p.Dst) > nHosts {
				return -1
			}
			return hostLeaf(p.Dst)
		})
	}
	return ls
}

// BaseRTT returns the unloaded inter-rack RTT estimate (host -> leaf ->
// spine -> leaf -> host and back): the value used for ECN threshold
// derivation in the large-scale experiments.
func (ls *LeafSpine) BaseRTT() time.Duration {
	// 4 links each way: two host<->leaf edges and two leaf<->spine edges.
	prop := 8 * leafSpineDelay
	dataSer := 4 * units.Serialization(units.MTU, ls.cfg.Rate)
	ackSer := 4 * units.Serialization(units.AckSize, ls.cfg.Rate)
	return prop + dataSer + ackSer
}

// ecmpHash is a splitmix64-style integer hash.
func ecmpHash(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
