package flowsim_test

import (
	"math"
	"testing"
	"time"

	"pmsb/internal/flowsim"
	"pmsb/internal/sim"
	"pmsb/internal/topo"
	"pmsb/internal/units"
	"pmsb/internal/workload"
)

// newSim wires a flow sim over a graph with slow start disabled, so the
// first quantum solve lands every flow on its closed-form max-min rate.
func newSim(t *testing.T, g *topo.PathGraph, cfg flowsim.Config) (*sim.Engine, *flowsim.Sim) {
	t.Helper()
	if cfg.Marking == nil {
		cfg.Marking = flowsim.PMSB{KBytes: 18000}
	}
	eng := sim.NewEngine()
	return eng, flowsim.New(eng, g, cfg)
}

// TestMaxMinClosedForm checks the water-filling solver against
// hand-computed fixpoints on the dumbbell and leaf-spine graphs.
func TestMaxMinClosedForm(t *testing.T) {
	gbps := func(g float64) float64 { return g * 1e9 / 8 } // bytes/sec
	cases := []struct {
		name  string
		graph func() *topo.PathGraph
		specs []workload.FlowSpec
		want  []float64 // bytes/sec per flow, spec order
	}{
		{
			// Bottleneck 5G shared by two senders; a third flow from
			// sender 1 then takes the NIC leftovers: the second
			// water-filling level.
			name: "dumbbell-two-level",
			graph: func() *topo.PathGraph {
				return topo.DumbbellPaths(topo.DumbbellConfig{
					Senders: 3, AccessRate: 10 * units.Gbps, BottleneckRate: 5 * units.Gbps,
				})
			},
			specs: []workload.FlowSpec{
				{Src: 1, Dst: 0, Size: 1 << 30},
				{Src: 2, Dst: 0, Size: 1 << 30},
				{Src: 1, Dst: 2, Size: 1 << 30},
			},
			want: []float64{gbps(2.5), gbps(2.5), gbps(7.5)},
		},
		{
			// All senders symmetric on the bottleneck: C/N each.
			name: "dumbbell-fair-share",
			graph: func() *topo.PathGraph {
				return topo.DumbbellPaths(topo.DumbbellConfig{
					Senders: 4, AccessRate: 10 * units.Gbps, BottleneckRate: 10 * units.Gbps,
				})
			},
			specs: []workload.FlowSpec{
				{Src: 1, Dst: 0, Size: 1 << 30},
				{Src: 2, Dst: 0, Size: 1 << 30},
				{Src: 3, Dst: 0, Size: 1 << 30},
				{Src: 4, Dst: 0, Size: 1 << 30},
			},
			want: []float64{gbps(2.5), gbps(2.5), gbps(2.5), gbps(2.5)},
		},
		{
			// Single spine, so every cross-leaf flow shares the one
			// fabric uplink: three incast flows saturate it at C/3,
			// and the reverse flow picks up the receiver-leaf
			// downlink's remainder 2C/3 — two distinct levels.
			name: "leafspine-two-level",
			graph: func() *topo.PathGraph {
				return topo.LeafSpinePaths(topo.LeafSpineConfig{
					Leaves: 2, Spines: 1, HostsPerLeaf: 3, Rate: 10 * units.Gbps,
				})
			},
			specs: []workload.FlowSpec{
				{Src: 3, Dst: 0, Size: 1 << 30}, // leaf1 -> leaf0
				{Src: 4, Dst: 0, Size: 1 << 30}, // leaf1 -> leaf0
				{Src: 5, Dst: 1, Size: 1 << 30}, // leaf1 -> leaf0
				{Src: 0, Dst: 1, Size: 1 << 30}, // leaf0 local
			},
			want: []float64{gbps(10.0 / 3), gbps(10.0 / 3), gbps(10.0 / 3), gbps(20.0 / 3)},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng, fs := newSim(t, tc.graph(), flowsim.Config{NoSlowStart: true})
			fs.Start(tc.specs)
			eng.RunUntil(fs.Quantum() / 2)
			for i, want := range tc.want {
				got := fs.FlowRate(i)
				if rel := math.Abs(got-want) / want; rel > 1e-9 {
					t.Errorf("flow %d: rate %.4g B/s, want %.4g B/s (rel err %.2g)", i, got, want, rel)
				}
			}
		})
	}
}

// TestSingleFlowFCT checks the FCT accounting on an uncontended path:
// transmission time at line rate plus the delivery tail.
func TestSingleFlowFCT(t *testing.T) {
	cfg := topo.DumbbellConfig{Senders: 2, AccessRate: 10 * units.Gbps, BottleneckRate: 10 * units.Gbps}
	g := topo.DumbbellPaths(cfg)
	var got time.Duration
	eng, fs := newSim(t, g, flowsim.Config{
		NoSlowStart: true,
		OnFinish:    func(r flowsim.FlowResult) { got = r.FCT },
	})
	const size = 1_000_000
	fs.Start([]workload.FlowSpec{{Src: 1, Dst: 0, Size: size}})
	eng.RunUntil(10 * time.Millisecond)
	if fs.Completed() != 1 {
		t.Fatalf("completed = %d, want 1", fs.Completed())
	}
	rate := 10e9 / 8 // bytes/sec
	tx := time.Duration(size / rate * 1e9)
	// Tail: propagation both ways on both hops, store-and-forward MTU on
	// the second hop, ACK serialization on both hops, plus the fluid
	// standing queue a saturating DCTCP flow holds at the marking
	// threshold (18000 B at PMSB's default K here) on both hops.
	tail := 4*5*time.Microsecond +
		units.Serialization(units.MTU, cfg.AccessRate) +
		2*units.Serialization(units.AckSize, cfg.AccessRate) +
		2*time.Duration(18000/rate*1e9)
	want := tx + tail
	if diff := (got - want).Abs(); diff > time.Microsecond {
		t.Errorf("FCT = %v, want %v (diff %v)", got, want, diff)
	}
}

// TestFluidSteadyState pins the fluid queue's equilibrium against the
// traced fig8 record (EXPERIMENTS.md): a saturated PMSB port with K=12
// packets (18000 B) and two equal-weight busy services settles its
// standing queue at K, split 9000 B per service — exactly the packet
// trace's q0 median.
func TestFluidSteadyState(t *testing.T) {
	cfg := topo.DumbbellConfig{Senders: 2, AccessRate: 10 * units.Gbps, BottleneckRate: 10 * units.Gbps}
	bottleneck := 3 // links[hosts]: switch -> receiver
	specs := []workload.FlowSpec{
		{Src: 1, Dst: 0, Size: 1 << 32, Service: 0},
		{Src: 2, Dst: 0, Size: 1 << 32, Service: 1},
	}
	cases := []struct {
		name       string
		marking    flowsim.Marking
		wantPort   float64
		wantPerSvc float64
	}{
		{"pmsb", flowsim.PMSB{KBytes: 18000}, 18000, 9000},
		{"per-port", flowsim.PerPort{KBytes: 18000}, 18000, 9000},
		{"mq-ecn", flowsim.MQECN{KBytes: 97500}, 97500, 48750},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng, fs := newSim(t, topo.DumbbellPaths(cfg), flowsim.Config{
				Marking:     tc.marking,
				Weights:     []int{1, 1},
				NoSlowStart: true,
			})
			fs.Start(specs)
			eng.RunUntil(20 * time.Millisecond)
			if got := fs.PortDepth(bottleneck); math.Abs(got-tc.wantPort) > 1 {
				t.Errorf("port depth = %.1f B, want %.1f B", got, tc.wantPort)
			}
			for svc := 0; svc < 2; svc++ {
				if got := fs.ServiceDepth(bottleneck, svc); math.Abs(got-tc.wantPerSvc) > 1 {
					t.Errorf("service %d depth = %.1f B, want %.1f B", svc, got, tc.wantPerSvc)
				}
			}
			// Uncontended links hold no standing queue.
			if got := fs.PortDepth(1); got != 0 {
				t.Errorf("sender uplink depth = %.1f B, want 0", got)
			}
		})
	}
}

// TestSlowStartRamp checks that the default (slow-start) mode admits a
// flow at the initial-window rate and converges to line rate, and that
// short flows pay the ramp: a flow much smaller than the
// bandwidth-delay product finishes later than size/linerate would
// predict.
func TestSlowStartRamp(t *testing.T) {
	cfg := topo.DumbbellConfig{Senders: 2, AccessRate: 10 * units.Gbps, BottleneckRate: 10 * units.Gbps}
	g := topo.DumbbellPaths(cfg)
	var fct time.Duration
	eng, fs := newSim(t, g, flowsim.Config{
		OnFinish: func(r flowsim.FlowResult) { fct = r.FCT },
	})
	const size = 60_000 // ~41 segments: a couple of doubling rounds
	fs.Start([]workload.FlowSpec{{Src: 1, Dst: 0, Size: size}})
	eng.RunUntil(50 * time.Millisecond)
	if fs.Completed() != 1 {
		t.Fatalf("completed = %d, want 1", fs.Completed())
	}
	lineRate := 10e9 / 8
	floor := time.Duration(size / lineRate * 1e9)
	if fct <= floor {
		t.Errorf("FCT %v <= line-rate floor %v: ramp did not bind", fct, floor)
	}
	if fct > 100*floor {
		t.Errorf("FCT %v implausibly above line-rate floor %v", fct, floor)
	}

	// A long flow must still reach line rate despite the ramp.
	eng2, fs2 := newSim(t, topo.DumbbellPaths(cfg), flowsim.Config{})
	fs2.Start([]workload.FlowSpec{{Src: 1, Dst: 0, Size: 1 << 30}})
	eng2.RunUntil(5 * time.Millisecond)
	if got := fs2.FlowRate(0); math.Abs(got-lineRate)/lineRate > 0.01 {
		t.Errorf("long-flow rate = %.4g B/s, want line rate %.4g B/s", got, lineRate)
	}
}

// TestDeterminism re-runs an incast twice and demands identical FCTs.
func TestDeterminism(t *testing.T) {
	run := func() []time.Duration {
		g := topo.LeafSpinePaths(topo.LeafSpineConfig{Leaves: 4, Spines: 4, HostsPerLeaf: 4})
		var fcts []time.Duration
		eng, fs := newSim(t, g, flowsim.Config{
			OnFinish: func(r flowsim.FlowResult) { fcts = append(fcts, r.FCT) },
		})
		var specs []workload.FlowSpec
		for i := 0; i < 12; i++ {
			specs = append(specs, workload.FlowSpec{
				Start:   time.Duration(i) * time.Microsecond,
				Src:     i + 1,
				Dst:     0,
				Size:    100_000,
				Service: i % 4,
			})
		}
		fs.Start(specs)
		eng.RunUntil(time.Second)
		if fs.Completed() != len(specs) {
			t.Fatalf("completed = %d, want %d", fs.Completed(), len(specs))
		}
		return fcts
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run differs at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestFatTreePathsAgree checks the engine-free fat-tree graph against
// the packet builder on shared invariants: host count, base RTT, and
// ECMP determinism of the path function.
func TestFatTreePathsAgree(t *testing.T) {
	cfg := topo.FatTreeConfig{K: 4, Rate: 10 * units.Gbps, FabricDelaySkew: time.Nanosecond}
	g := topo.FatTreePaths(cfg)
	if g.Hosts != 16 {
		t.Fatalf("hosts = %d, want 16", g.Hosts)
	}
	for flow := uint64(1); flow <= 64; flow++ {
		for _, pair := range [][2]int{{0, 15}, {0, 3}, {0, 1}, {5, 12}} {
			p1 := g.PathFor(pair[0], pair[1], flow, nil)
			p2 := g.PathFor(pair[0], pair[1], flow, nil)
			if len(p1) == 0 || len(p1) > g.MaxPathLen {
				t.Fatalf("path %v->%v flow %d: bad length %d", pair[0], pair[1], flow, len(p1))
			}
			for i := range p1 {
				if p1[i] != p2[i] {
					t.Fatalf("path %v->%v flow %d not deterministic", pair[0], pair[1], flow)
				}
				if int(p1[i]) >= len(g.Links) {
					t.Fatalf("path link %d out of range", p1[i])
				}
			}
		}
	}
	// Cross-pod paths take 6 hops, pod-local cross-edge 4, same-edge 2.
	if p := g.PathFor(0, 15, 1, nil); len(p) != 6 {
		t.Errorf("cross-pod path length = %d, want 6", len(p))
	}
	if p := g.PathFor(0, 3, 1, nil); len(p) != 4 {
		t.Errorf("pod-local path length = %d, want 4", len(p))
	}
	if p := g.PathFor(0, 1, 1, nil); len(p) != 2 {
		t.Errorf("same-edge path length = %d, want 2", len(p))
	}
}
