package topo

import (
	"time"

	"pmsb/internal/units"
)

// This file is the engine-free view of the package's topologies: the
// directed link set and a deterministic path function replicating the
// packet builders' routing — including every flow-level ECMP hash
// decision — without instantiating switches, ports or links. The
// flow-level engine (internal/flowsim) evolves rates over these graphs;
// because PathFor reuses ecmpHash/ecmpAggSalt verbatim, a flow takes
// the same fabric path in both engines, so calibration compares like
// with like down to the individual bottleneck link.

// PathLink is one directed link of a PathGraph.
type PathLink struct {
	// Rate is the link capacity.
	Rate units.Rate
	// Delay is the one-way propagation delay.
	Delay time.Duration
}

// PathGraph is an engine-free topology: hosts, directed capacity links
// and the routing function. Host indices are 0-based and correspond to
// the packet builders' Hosts slices (for the dumbbell, index 0 is the
// receiver and 1..Senders the senders, mirroring Recv/Senders).
type PathGraph struct {
	// Name identifies the topology family ("dumbbell", "leafspine",
	// "fattree").
	Name string
	// Hosts is the host count.
	Hosts int
	// Links are the directed links; PathFor returns indices into it.
	Links []PathLink
	// MaxPathLen bounds the number of links on any path.
	MaxPathLen int
	// BaseRTT is the unloaded worst-case RTT estimate (the same value
	// the packet builders report).
	BaseRTT time.Duration

	pathFor func(src, dst int, flow uint64, buf []int32) []int32
}

// PathFor appends the directed link indices of the src->dst path for
// the given flow ID to buf and returns it. The ECMP decisions are
// byte-identical to the packet builders' routing closures: the same
// (src, dst, flow) triple traverses the same physical links in both
// engines. src == dst returns buf unchanged.
func (g *PathGraph) PathFor(src, dst int, flow uint64, buf []int32) []int32 {
	if src == dst {
		return buf
	}
	return g.pathFor(src, dst, flow, buf)
}

// DumbbellPaths is the engine-free counterpart of NewDumbbell. Host 0
// is the receiver, hosts 1..Senders the senders; every path is
// sender NIC -> switch -> destination (two links).
func DumbbellPaths(cfg DumbbellConfig) *PathGraph {
	if cfg.AccessRate == 0 {
		cfg.AccessRate = 10 * units.Gbps
	}
	if cfg.BottleneckRate == 0 {
		cfg.BottleneckRate = cfg.AccessRate
	}
	if cfg.Delay == 0 {
		cfg.Delay = 5 * time.Microsecond
	}
	hosts := cfg.Senders + 1
	// Links: up(i) = i (host i -> switch), down(i) = hosts + i
	// (switch -> host i). The switch->receiver downlink is the
	// bottleneck port.
	links := make([]PathLink, 2*hosts)
	for i := 0; i < hosts; i++ {
		links[i] = PathLink{Rate: cfg.AccessRate, Delay: cfg.Delay}
		links[hosts+i] = PathLink{Rate: cfg.AccessRate, Delay: cfg.Delay}
	}
	links[hosts] = PathLink{Rate: cfg.BottleneckRate, Delay: cfg.Delay}

	d := Dumbbell{cfg: cfg}
	return &PathGraph{
		Name:       "dumbbell",
		Hosts:      hosts,
		Links:      links,
		MaxPathLen: 2,
		BaseRTT:    d.BaseRTT(),
		pathFor: func(src, dst int, flow uint64, buf []int32) []int32 {
			return append(buf, int32(src), int32(hosts+dst))
		},
	}
}

// LeafSpinePaths is the engine-free counterpart of NewLeafSpine. Spine
// selection uses the identical ecmpHash(flow) % Spines decision as the
// leaf routing closure.
func LeafSpinePaths(cfg LeafSpineConfig) *PathGraph {
	cfg.defaults()
	nHosts := cfg.Leaves * cfg.HostsPerLeaf
	// Links: up(i) = i, down(i) = n + i, leafUp(l, s) = 2n + l*Spines + s,
	// spineDown(s, l) = 2n + Leaves*Spines + s*Leaves + l.
	nFab := cfg.Leaves * cfg.Spines
	links := make([]PathLink, 2*nHosts+2*nFab)
	for i := range links {
		links[i] = PathLink{Rate: cfg.Rate, Delay: leafSpineDelay}
	}
	leafUp := 2 * nHosts
	spineDown := 2*nHosts + nFab
	spines, hpl := cfg.Spines, cfg.HostsPerLeaf

	ls := LeafSpine{cfg: cfg}
	return &PathGraph{
		Name:       "leafspine",
		Hosts:      nHosts,
		Links:      links,
		MaxPathLen: 4,
		BaseRTT:    ls.BaseRTT(),
		pathFor: func(src, dst int, flow uint64, buf []int32) []int32 {
			buf = append(buf, int32(src))
			ls, ld := src/hpl, dst/hpl
			if ls != ld {
				// Same hash decision as the leaf's routing closure.
				s := int(ecmpHash(flow) % uint64(spines))
				buf = append(buf,
					int32(leafUp+ls*spines+s),
					int32(spineDown+s*cfg.Leaves+ld))
			}
			return append(buf, int32(nHosts+dst))
		},
	}
}

// FatTreePaths is the engine-free counterpart of NewFatTree, including
// the FabricDelaySkew cable-length formula and the two-tier ECMP
// decisions (edge tier hashes the flow ID, the aggregation tier salts
// it with ecmpAggSalt so the core choice decorrelates).
func FatTreePaths(cfg FatTreeConfig) *PathGraph {
	sh := cfg.shape()
	half, pods, hpp, nHosts, nCores := sh.half, sh.pods, sh.hostsPerPod, sh.nHosts, sh.nCores
	nEdges := pods * half

	// Links: up(i) = i, down(i) = n + i,
	// edgeUp(e, j)  = 2n + e*half + j          (edge e -> agg pod(e)*half+j)
	// aggDown(a, e) = 2n + E*half + a*half + e (agg a -> edge pod(a)*half+e)
	// aggUp(a, i)   = 2n + 2E*half + a*half + i (agg a -> core (a%half)*half+i)
	// coreDown(c,p) = 2n + 3E*half + c*pods + p
	edgeUp := 2 * nHosts
	aggDown := edgeUp + nEdges*half
	aggUp := aggDown + nEdges*half
	coreDown := aggUp + nEdges*half
	links := make([]PathLink, coreDown+nCores*pods)
	for i := 0; i < aggUp; i++ {
		links[i] = PathLink{Rate: cfg.Rate, Delay: fatTreeDelay}
	}
	// Agg<->core cables use the per-(pod, core) length formula of the
	// packet builder's fabricLink.
	fabricDelay := func(p, c int) time.Duration {
		return fatTreeDelay + time.Duration(1+p*nCores+c)*cfg.FabricDelaySkew
	}
	for a := 0; a < nEdges; a++ {
		p, j := a/half, a%half
		for i := 0; i < half; i++ {
			links[aggUp+a*half+i] = PathLink{Rate: cfg.Rate, Delay: fabricDelay(p, j*half+i)}
		}
	}
	for c := 0; c < nCores; c++ {
		for p := 0; p < pods; p++ {
			links[coreDown+c*pods+p] = PathLink{Rate: cfg.Rate, Delay: fabricDelay(p, c)}
		}
	}

	ft := FatTree{cfg: cfg}
	return &PathGraph{
		Name:       "fattree",
		Hosts:      nHosts,
		Links:      links,
		MaxPathLen: 6,
		BaseRTT:    ft.BaseRTT(),
		pathFor: func(src, dst int, flow uint64, buf []int32) []int32 {
			buf = append(buf, int32(src))
			ps, es := src/hpp, (src%hpp)/half
			pd, ed := dst/hpp, (dst%hpp)/half
			if ps != pd {
				// Cross-pod: both ECMP tiers decide, exactly as the edge
				// and agg routing closures do.
				j := int(ecmpHash(flow) % uint64(half))
				i := int(ecmpHash(flow^ecmpAggSalt) % uint64(half))
				c := j*half + i
				buf = append(buf,
					int32(edgeUp+(ps*half+es)*half+j),
					int32(aggUp+(ps*half+j)*half+i),
					int32(coreDown+c*pods+pd),
					// Core c attaches to agg c/half = j in every pod.
					int32(aggDown+(pd*half+j)*half+ed))
			} else if es != ed {
				// Pod-local, different edges: one ECMP decision.
				j := int(ecmpHash(flow) % uint64(half))
				buf = append(buf,
					int32(edgeUp+(ps*half+es)*half+j),
					int32(aggDown+(ps*half+j)*half+ed))
			}
			return append(buf, int32(nHosts+dst))
		},
	}
}
