package topo

import (
	"testing"
	"time"

	"pmsb/internal/pkt"
	"pmsb/internal/sim"
	"pmsb/internal/units"
)

func TestLeafSpineCustomDimensions(t *testing.T) {
	eng := sim.NewEngine()
	ls := NewLeafSpine(eng, LeafSpineConfig{
		Leaves: 2, Spines: 3, HostsPerLeaf: 4,
		Rate:  40 * units.Gbps,
		Ports: fifoProfile(),
	})
	if ls.NumHosts() != 8 {
		t.Fatalf("hosts = %d", ls.NumHosts())
	}
	for _, l := range ls.Leaves {
		if l.NumPorts() != 7 { // 4 down + 3 up
			t.Fatalf("leaf ports = %d", l.NumPorts())
		}
	}
	for _, s := range ls.Spines {
		if s.NumPorts() != 2 {
			t.Fatalf("spine ports = %d", s.NumPorts())
		}
	}
	// Inter-rack reachability.
	ls.Host(0).Send(&pkt.Packet{Flow: 1, Src: 1, Dst: 8, Size: 100})
	eng.Run()
	if ls.Host(7).RxPackets() != 1 {
		t.Fatal("custom fabric did not deliver")
	}
}

func TestECMPFlowStickiness(t *testing.T) {
	// All packets of one flow must take the same spine (no reordering).
	eng := sim.NewEngine()
	ls := NewLeafSpine(eng, LeafSpineConfig{Ports: fifoProfile()})
	for i := 0; i < 50; i++ {
		ls.Host(0).Send(&pkt.Packet{Flow: 42, Src: 1, Dst: 13, Size: 100, ID: uint64(i)})
	}
	eng.Run()
	spinesUsed := 0
	for _, s := range ls.Spines {
		for i := 0; i < s.NumPorts(); i++ {
			if s.Port(i).TxPackets() > 0 {
				spinesUsed++
				if s.Port(i).TxPackets() != 50 {
					t.Fatalf("flow split across paths: %d packets on one spine", s.Port(i).TxPackets())
				}
			}
		}
	}
	if spinesUsed != 1 {
		t.Fatalf("flow touched %d spine ports, want 1", spinesUsed)
	}
}

func TestECMPDifferentFlowsDiverge(t *testing.T) {
	// With many flows, the hash must not collapse to one spine.
	counts := map[uint64]bool{}
	for f := uint64(1); f <= 64; f++ {
		counts[ecmpHash(f)%4] = true
	}
	if len(counts) < 3 {
		t.Fatalf("ECMP hash uses only %d of 4 spines over 64 flows", len(counts))
	}
}

func TestLeafSpineRoutesUnknownDstToDrop(t *testing.T) {
	eng := sim.NewEngine()
	ls := NewLeafSpine(eng, LeafSpineConfig{Ports: fifoProfile()})
	ls.Host(0).Send(&pkt.Packet{Flow: 1, Src: 1, Dst: 999, Size: 100})
	eng.Run()
	if ls.Leaves[0].RouteDrops() != 1 {
		t.Fatal("unknown destination must be dropped at the leaf")
	}
}

func TestDumbbellDefaults(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDumbbell(eng, DumbbellConfig{Senders: 1, Bottleneck: fifoProfile()})
	if d.Bottleneck.LinkRate() != 10*units.Gbps {
		t.Fatalf("default bottleneck rate = %v", d.Bottleneck.LinkRate())
	}
	// Default delay 5us: base RTT = 4*5us + serialization terms.
	if rtt := d.BaseRTT(); rtt < 20*time.Microsecond || rtt > 25*time.Microsecond {
		t.Fatalf("default BaseRTT = %v", rtt)
	}
}

func TestDumbbellAsymmetricRates(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDumbbell(eng, DumbbellConfig{
		Senders:        1,
		AccessRate:     10 * units.Gbps,
		BottleneckRate: 1 * units.Gbps,
		Bottleneck:     fifoProfile(),
	})
	if d.Bottleneck.LinkRate() != 1*units.Gbps {
		t.Fatal("bottleneck rate not applied")
	}
	// Base RTT includes the slower bottleneck serialization (12us).
	if rtt := d.BaseRTT(); rtt < 33*time.Microsecond {
		t.Fatalf("asymmetric BaseRTT = %v, want > 33us", rtt)
	}
}
