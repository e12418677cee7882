package experiment

import (
	"fmt"
	"time"

	"pmsb/internal/core"
	"pmsb/internal/topo"
	"pmsb/internal/transport"
	"pmsb/internal/units"
	"pmsb/internal/workload"
)

// Fat-tree experiments: the k=8 (128-host) and k=32 fabrics the sharded
// coordinator is benchmarked on, registered as first-class experiments
// so the runtime-introspection surface (-runtimestats, -progress) has a
// genuinely multi-shard workload to explain. Two traffic shapes:
//
//   - "fattree", "fattree32": cross-pod permutation traffic — every pod
//     sends and receives, so the pod-sharded partition is balanced.
//   - "fattree-incast": pods 1..7 all send into pod 0 — the skewed load
//     where one shard's windows dominate and the shard-imbalance report
//     earns its keep (EXPERIMENTS.md walks through diagnosing it).
//
// All honor Shards (pods block-partition onto up to k shards) and the
// tracing/monitor/runtime options, with fixed start times and deadlines
// so results are deterministic at any shard count.

const (
	fattreeK        = 8
	fattreeServices = 4
	fattreeDeadline = 50 * time.Millisecond
)

// fattreeConfig is the shared port/fabric profile for a k-ary tree:
// DWRR scheduling carved from per-shard slabs, one shared (stateless)
// PMSB marker, the paper's 250-packet port buffer, and a nanosecond
// fabric-delay skew so no two cross-shard arrivals can tie (the
// precondition for shard-count-invariant results). The slab/shared
// profile is what keeps the k=32 (49k-port) fabric buildable in a few
// MB; the k=8 differential suite gates its behavioral equivalence with
// the per-port factories.
func fattreeConfig(k int) topo.FatTreeConfig {
	return topo.FatTreeConfig{
		K:               k,
		FabricDelaySkew: time.Nanosecond,
		Ports: topo.PortProfile{
			Weights:       topo.EqualWeights(fattreeServices),
			NewSchedBlock: topo.DWRRBlocks(),
			SharedMarker:  &core.PMSB{PortK: units.Packets(fctPortK)},
			BufferBytes:   units.Packets(fctBufferPkts),
		},
	}
}

// fattreeSpec is flow i of a fixed fat-tree workload: services round
// robin, starts 4us apart.
func fattreeSpec(i, src, dst int, size int64) workload.FlowSpec {
	return workload.FlowSpec{Start: time.Duration(i) * 4 * time.Microsecond,
		Src: src, Dst: dst, Size: size, Service: i % fattreeServices}
}

// fattreeCrossPod is the permutation-ish cross-pod workload (the
// differential tests' shape): deterministic src/dst striding that
// touches every pod. n flows over the k-ary tree's k^3/4 hosts.
func fattreeCrossPod(k, n int) []workload.FlowSpec {
	hostsPP := (k / 2) * (k / 2)
	nHosts := k * k * k / 4
	flows := make([]workload.FlowSpec, 0, n)
	for i := 0; i < n; i++ {
		src := (i * 7) % nHosts
		dst := (src + hostsPP + i*11) % nHosts
		if dst/hostsPP == src/hostsPP {
			dst = (dst + hostsPP) % nHosts
		}
		flows = append(flows, fattreeSpec(i, src, dst, 50_000))
	}
	return flows
}

// fattreeIncast is the skewed workload: perPod senders in each of pods
// 1..k-1 converge on host 0 in pod 0.
func fattreeIncast(k, perPod int) []workload.FlowSpec {
	hostsPP := (k / 2) * (k / 2)
	var flows []workload.FlowSpec
	for p := 1; p < k; p++ {
		for j := 0; j < perPod; j++ {
			flows = append(flows, fattreeSpec(len(flows), p*hostsPP+j*3, 0, 30_000))
		}
	}
	return flows
}

// runFatTree builds the k-ary fabric (serial or pod-sharded per opt),
// starts the fixed workload, and reports completions and FCT
// percentiles.
func runFatTree(id, title string, k int, flows []workload.FlowSpec, opt Options) (*Result, error) {
	w := fatTreeWiring(fattreeConfig(k))
	// One slot per flow: sharded, completions run on every pod's worker
	// at once, so they share nothing; the summary is built in flow order
	// once the run is over. Zero means unfinished at the deadline.
	done := make([]time.Duration, len(flows))
	fab, err := opt.runPacket(w, func(fab *topo.Fabric) time.Duration {
		opt.startFlows(fab, flows, fattreeServices, nil, func(i int, s *transport.Sender) { done[i] = s.FCT() })
		return fattreeDeadline
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", id, err)
	}

	fcts := fctSummary(done, nil)
	completed := fcts.Count()
	res := &Result{
		ID:      id,
		Title:   title,
		Headers: []string{"metric", "value"},
	}
	res.AddRow("flows", fmt.Sprintf("%d", len(flows)))
	res.AddRow("completed", fmt.Sprintf("%d", completed))
	res.AddRow("events", fmt.Sprintf("%d", fab.Processed()))
	res.AddRow("shards", fmt.Sprintf("%d", opt.width(w)))
	if fcts.Count() > 0 {
		res.AddRow("fct-mean-ms", msec(fcts.Mean()))
		res.AddRow("fct-p99-ms", msec(fcts.Percentile(99)))
	}
	if completed < len(flows) {
		res.AddNote("%d of %d flows unfinished at %v", len(flows)-completed, len(flows), fattreeDeadline)
	}
	return res, nil
}

// fattreeSpecs registers the fat-tree experiments.
func fattreeSpecs() []Spec {
	return []Spec{
		{
			ID:      "fattree",
			Title:   "k=8 fat-tree, cross-pod permutation traffic (PMSB + DWRR)",
			Sharded: true,
			Run: func(opt Options) (*Result, error) {
				n := 64
				if opt.Quick {
					n = 32
				}
				return runFatTree("fattree",
					"k=8 fat-tree, cross-pod permutation traffic (PMSB + DWRR)",
					fattreeK, fattreeCrossPod(fattreeK, n), opt)
			},
		},
		{
			ID:      "fattree-incast",
			Title:   "k=8 fat-tree, pods 1..7 incast into pod 0 (shard-skew scenario)",
			Sharded: true,
			Run: func(opt Options) (*Result, error) {
				perPod := 4
				if opt.Quick {
					perPod = 2
				}
				return runFatTree("fattree-incast",
					"k=8 fat-tree, pods 1..7 incast into pod 0 (shard-skew scenario)",
					fattreeK, fattreeIncast(fattreeK, perPod), opt)
			},
		},
		{
			ID:      "fattree32",
			Title:   "k=32 fat-tree (8192 hosts, 49k ports), cross-pod permutation traffic",
			Sharded: true,
			Run: func(opt Options) (*Result, error) {
				// The arena-backed builder's headline scale: ~49k ports in a
				// few slab allocations. The workload is a wider permutation
				// stripe (one flow per pod pair's worth of striding) so every
				// pod — and, sharded, every shard — carries traffic.
				n := 256
				if opt.Quick {
					n = 64
				}
				return runFatTree("fattree32",
					"k=32 fat-tree (8192 hosts, 49k ports), cross-pod permutation traffic",
					32, fattreeCrossPod(32, n), opt)
			},
		},
	}
}
