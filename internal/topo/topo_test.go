package topo

import (
	"slices"
	"testing"
	"time"

	"pmsb/internal/ecn"
	"pmsb/internal/netsim"
	"pmsb/internal/pkt"
	"pmsb/internal/sim"
	"pmsb/internal/transport"
	"pmsb/internal/units"
)

func fifoProfile() PortProfile {
	return PortProfile{
		Weights:  EqualWeights(1),
		NewSched: FIFOFactory(),
	}
}

func TestDumbbellWiring(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDumbbell(eng, DumbbellConfig{
		Senders:    4,
		Bottleneck: fifoProfile(),
	})
	if len(d.Senders) != 4 {
		t.Fatalf("senders = %d", len(d.Senders))
	}
	if d.Switch.NumPorts() != 5 {
		t.Fatalf("ports = %d, want 5", d.Switch.NumPorts())
	}
	if d.Recv.NodeID() != 1 {
		t.Fatal("receiver must be node 1")
	}
}

func TestDumbbellEndToEndFlow(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDumbbell(eng, DumbbellConfig{
		Senders:    2,
		Bottleneck: fifoProfile(),
	})
	done := 0
	for i, h := range d.Senders {
		f := transport.NewFlow(eng, h, d.Recv, pkt.FlowID(i+1), 0, 50_000,
			transport.Config{}, func(*transport.Sender) { done++ })
		f.Sender.Start()
	}
	eng.RunUntil(100 * time.Millisecond)
	if done != 2 {
		t.Fatalf("completed %d flows, want 2", done)
	}
	if d.Switch.RouteDrops() != 0 {
		t.Fatalf("route drops = %d", d.Switch.RouteDrops())
	}
}

func TestDumbbellBaseRTT(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDumbbell(eng, DumbbellConfig{Senders: 1, Bottleneck: fifoProfile()})
	want := d.BaseRTT()
	f := transport.NewFlow(eng, d.Senders[0], d.Recv, 1, 0, 10_000, transport.Config{}, nil)
	f.Sender.RecordRTT()
	f.Sender.Start()
	eng.RunUntil(10 * time.Millisecond)
	got := slices.Min(f.Sender.RTTSamples())
	if got < want-5*time.Microsecond || got > want+5*time.Microsecond {
		t.Fatalf("measured base RTT %v vs estimate %v", got, want)
	}
}

func TestLeafSpineWiring(t *testing.T) {
	eng := sim.NewEngine()
	ls := NewLeafSpine(eng, LeafSpineConfig{Ports: fifoProfile()})
	if ls.NumHosts() != 48 {
		t.Fatalf("hosts = %d, want 48", ls.NumHosts())
	}
	if len(ls.Leaves) != 4 || len(ls.Spines) != 4 {
		t.Fatal("switch counts wrong")
	}
	// Each leaf: 12 down + 4 up ports; each spine: 4 down ports.
	for _, l := range ls.Leaves {
		if l.NumPorts() != 16 {
			t.Fatalf("leaf ports = %d, want 16", l.NumPorts())
		}
	}
	for _, s := range ls.Spines {
		if s.NumPorts() != 4 {
			t.Fatalf("spine ports = %d, want 4", s.NumPorts())
		}
	}
}

func TestLeafSpineIntraRackFlow(t *testing.T) {
	eng := sim.NewEngine()
	ls := NewLeafSpine(eng, LeafSpineConfig{Ports: fifoProfile()})
	done := false
	// Hosts 0 and 1 share leaf 0.
	f := transport.NewFlow(eng, ls.Host(0), ls.Host(1), 1, 0, 100_000,
		transport.Config{}, func(*transport.Sender) { done = true })
	f.Sender.Start()
	eng.RunUntil(100 * time.Millisecond)
	if !done {
		t.Fatal("intra-rack flow did not complete")
	}
	// Intra-rack traffic must not touch spines.
	for _, s := range ls.Spines {
		for i := 0; i < s.NumPorts(); i++ {
			if s.Port(i).TxPackets() != 0 {
				t.Fatal("intra-rack flow crossed a spine")
			}
		}
	}
}

func TestLeafSpineInterRackFlow(t *testing.T) {
	eng := sim.NewEngine()
	ls := NewLeafSpine(eng, LeafSpineConfig{Ports: fifoProfile()})
	done := false
	// Host 0 (leaf 0) to host 47 (leaf 3).
	f := transport.NewFlow(eng, ls.Host(0), ls.Host(47), 1, 0, 100_000,
		transport.Config{}, func(*transport.Sender) { done = true })
	f.Sender.Start()
	eng.RunUntil(100 * time.Millisecond)
	if !done {
		t.Fatal("inter-rack flow did not complete")
	}
	crossed := 0
	for _, s := range ls.Spines {
		for i := 0; i < s.NumPorts(); i++ {
			crossed += int(s.Port(i).TxPackets())
		}
	}
	if crossed == 0 {
		t.Fatal("inter-rack flow did not cross any spine")
	}
}

func TestLeafSpineECMPSpread(t *testing.T) {
	eng := sim.NewEngine()
	ls := NewLeafSpine(eng, LeafSpineConfig{Ports: fifoProfile()})
	// Many flows from leaf 0 to leaf 1 should spread across all 4
	// spines via flow hashing.
	var done int
	for i := 0; i < 64; i++ {
		f := transport.NewFlow(eng, ls.Host(i%12), ls.Host(12+i%12), pkt.FlowID(i+1), 0, 10_000,
			transport.Config{}, func(*transport.Sender) { done++ })
		f.Sender.Start()
	}
	eng.RunUntil(time.Second)
	if done != 64 {
		t.Fatalf("completed %d/64 flows", done)
	}
	used := 0
	for _, s := range ls.Spines {
		active := false
		for i := 0; i < s.NumPorts(); i++ {
			if s.Port(i).TxPackets() > 0 {
				active = true
			}
		}
		if active {
			used++
		}
	}
	if used < 3 {
		t.Fatalf("ECMP used only %d/4 spines for 64 flows", used)
	}
}

func TestLeafSpineAllPairsReachable(t *testing.T) {
	// Route-level check without transports: inject raw packets from each
	// host's NIC toward every other host and count unclaimed arrivals.
	eng := sim.NewEngine()
	ls := NewLeafSpine(eng, LeafSpineConfig{Ports: fifoProfile()})
	n := ls.NumHosts()
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			ls.Host(src).Send(&pkt.Packet{
				Flow: pkt.FlowID(src*n + dst),
				Src:  pkt.NodeID(src + 1),
				Dst:  pkt.NodeID(dst + 1),
				Size: 100,
			})
		}
	}
	eng.Run()
	var delivered int64
	for _, h := range ls.Hosts {
		delivered += h.RxPackets()
		// Unclaimed is expected (no handlers registered); what matters
		// is arrival.
	}
	want := int64(n * (n - 1))
	if delivered != want {
		t.Fatalf("delivered %d packets, want %d", delivered, want)
	}
	for _, sw := range append(append([]*netsim.Switch{}, ls.Leaves...), ls.Spines...) {
		if sw.RouteDrops() != 0 {
			t.Fatalf("switch %d dropped %d packets for lack of routes", sw.NodeID(), sw.RouteDrops())
		}
	}
}

func TestFactories(t *testing.T) {
	eng := sim.NewEngine()
	w := EqualWeights(3)
	if len(w) != 3 || w[0] != 1 {
		t.Fatal("EqualWeights broken")
	}
	for name, f := range map[string]SchedFactory{
		"dwrr":  DWRRFactory(eng),
		"wfq":   WFQFactory(),
		"sp":    SPFactory(),
		"spwfq": SPWFQFactory(1),
		"fifo":  FIFOFactory(),
	} {
		s := f(w)
		if s == nil {
			t.Fatalf("%s factory returned nil", name)
		}
	}
}

func TestPortProfileMarker(t *testing.T) {
	eng := sim.NewEngine()
	called := 0
	pp := PortProfile{
		Weights:   EqualWeights(2),
		NewSched:  WFQFactory(),
		NewMarker: func() ecn.Marker { called++; return &ecn.PerPort{K: units.Packets(10)} },
	}
	d := NewDumbbell(eng, DumbbellConfig{Senders: 1, Bottleneck: pp})
	if called != 1 {
		t.Fatalf("marker factory called %d times, want 1 (bottleneck only)", called)
	}
	if d.Bottleneck.NumQueues() != 2 {
		t.Fatal("profile queue count not applied")
	}
}

// A profile naming two ways to build a port's scheduler or marker is
// refused when a topology is built, whichever topology builds it.
func TestPortProfileAmbiguousSeams(t *testing.T) {
	marker := func() ecn.Marker { return &ecn.PerPort{K: units.Packets(10)} }
	cases := []struct {
		name string
		pp   PortProfile
	}{
		{"NewSched+NewSchedWith", PortProfile{NewSched: WFQFactory(), NewSchedWith: DWRRSched}},
		{"NewSched+NewSchedBlock", PortProfile{NewSched: WFQFactory(), NewSchedBlock: DWRRBlocks()}},
		{"NewSchedWith+NewSchedBlock", PortProfile{NewSchedWith: DWRRSched, NewSchedBlock: DWRRBlocks()}},
		{"all three schedulers", PortProfile{NewSched: WFQFactory(), NewSchedWith: DWRRSched, NewSchedBlock: DWRRBlocks()}},
		{"NewMarker+SharedMarker", PortProfile{NewSched: WFQFactory(), NewMarker: marker, SharedMarker: marker()}},
	}
	builds := map[string]func(PortProfile){
		"dumbbell": func(pp PortProfile) {
			NewDumbbell(sim.NewEngine(), DumbbellConfig{Senders: 1, Bottleneck: pp})
		},
		"leafspine": func(pp PortProfile) { NewLeafSpine(sim.NewEngine(), LeafSpineConfig{Ports: pp}) },
		"fattree":   func(pp PortProfile) { NewFatTree(sim.NewEngine(), FatTreeConfig{K: 4, Ports: pp}) },
	}
	for _, tc := range cases {
		for topoName, build := range builds {
			t.Run(tc.name+"/"+topoName, func(t *testing.T) {
				pp := tc.pp
				pp.Weights = EqualWeights(2)
				defer func() {
					if recover() == nil {
						t.Fatal("ambiguous profile built without a panic")
					}
				}()
				build(pp)
			})
		}
	}
}
