package transport

import (
	"testing"
	"time"

	"pmsb/internal/core"
	"pmsb/internal/ecn"
	"pmsb/internal/netsim"
	"pmsb/internal/pkt"
	"pmsb/internal/sched"
	"pmsb/internal/sim"
	"pmsb/internal/units"
)

func TestDCQCNConvergesToBottleneck(t *testing.T) {
	// One DCQCN source starting at 10G over a 1G bottleneck with ECN
	// marking: the rate must converge near 1G without runaway queues.
	k := units.Packets(16)
	n := newBottleneckNet(t, &ecn.PerQueueStandard{K: k}, nil, units.Packets(500), 1*units.Gbps)
	s := NewDCQCNSender(n.eng, n.a, 1, n.b.NodeID(), 0, DCQCNConfig{StartRate: 10 * units.Gbps})
	r := NewDCQCNReceiver(n.eng, n.b, 1, n.a.NodeID(), 0)
	s.Start()
	n.eng.RunUntil(50 * time.Millisecond)

	if s.cnpCount == 0 {
		t.Fatal("expected congestion notifications")
	}
	// Delivered throughput over the run should be near the bottleneck.
	rate := units.RateOf(r.RxBytes(), 50*time.Millisecond)
	if rate < 700*units.Mbps || rate > 1100*units.Mbps {
		t.Fatalf("delivered rate %v, want ~1Gbps", rate)
	}
	// The instantaneous rate must have come down from 10G.
	if rate := units.Rate(s.rc); rate > 2*units.Gbps {
		t.Fatalf("final rate %v, want near 1Gbps", rate)
	}
}

func TestDCQCNFairShare(t *testing.T) {
	// Two DCQCN sources share a 1G bottleneck roughly equally.
	k := units.Packets(16)
	n := newBottleneckNet(t, &ecn.PerQueueStandard{K: k}, nil, units.Packets(500), 1*units.Gbps)
	c := attachExtraSender(n)

	s1 := NewDCQCNSender(n.eng, n.a, 1, n.b.NodeID(), 0, DCQCNConfig{StartRate: 10 * units.Gbps})
	r1 := NewDCQCNReceiver(n.eng, n.b, 1, n.a.NodeID(), 0)
	s2 := NewDCQCNSender(n.eng, c, 2, n.b.NodeID(), 0, DCQCNConfig{StartRate: 10 * units.Gbps})
	r2 := NewDCQCNReceiver(n.eng, n.b, 2, c.NodeID(), 0)
	s1.Start()
	s2.Start()
	n.eng.RunUntil(80 * time.Millisecond)

	g1, g2 := float64(r1.RxBytes()), float64(r2.RxBytes())
	share := g1 / (g1 + g2)
	if share < 0.3 || share > 0.7 {
		t.Fatalf("flow 1 share = %.3f, want roughly fair", share)
	}
}

func TestDCQCNUnderPMSBFairness(t *testing.T) {
	// The paper's core scenario with a rate-based transport: one DCQCN
	// flow in queue 1 vs four in queue 2 under PMSB keeps the 50% share.
	eng := sim.NewEngine()
	recv := netsim.NewHost(eng, 1)
	sw := netsim.NewSwitch(eng, 100)
	recv.AttachNIC(netsim.NewLink(eng, testRate, testDelay, sw))
	bott := netsim.NewPort(netsim.NewLink(eng, testRate, testDelay, recv),
		netsim.PortConfig{
			Sched:  sched.NewWFQ([]float64{1, 1}),
			Marker: &core.PMSB{PortK: units.Packets(12)},
		})
	sw.AddPort(bott)
	ports := map[pkt.NodeID]int{1: 0}
	hosts := make([]*netsim.Host, 5)
	for i := range hosts {
		h := netsim.NewHost(eng, pkt.NodeID(10+i))
		h.AttachNIC(netsim.NewLink(eng, testRate, testDelay, sw))
		idx := sw.AddPort(netsim.NewPort(netsim.NewLink(eng, testRate, testDelay, h),
			netsim.PortConfig{Sched: sched.NewFIFO()}))
		ports[h.NodeID()] = idx
		hosts[i] = h
	}
	sw.SetRoute(func(p *pkt.Packet) int {
		if idx, ok := ports[p.Dst]; ok {
			return idx
		}
		return -1
	})

	var bytesPerQueue [2]int64
	bott.OnDequeue(func(p *pkt.Packet, q int) { bytesPerQueue[q] += int64(p.Size) })

	for i, h := range hosts {
		service := 1
		if i == 0 {
			service = 0
		}
		s := NewDCQCNSender(eng, h, pkt.FlowID(i+1), 1, service, DCQCNConfig{})
		NewDCQCNReceiver(eng, recv, pkt.FlowID(i+1), h.NodeID(), service)
		s.Start()
	}
	eng.RunUntil(60 * time.Millisecond)

	share := float64(bytesPerQueue[0]) / float64(bytesPerQueue[0]+bytesPerQueue[1])
	if share < 0.4 || share > 0.6 {
		t.Fatalf("queue-1 share under PMSB with DCQCN = %.3f, want ~0.5", share)
	}
}
