package experiment

import (
	"fmt"
	"time"

	"pmsb/internal/ecn"
	"pmsb/internal/netsim"
	"pmsb/internal/pkt"
	"pmsb/internal/sched"
	"pmsb/internal/sim"
	"pmsb/internal/topo"
	"pmsb/internal/transport"
	"pmsb/internal/units"
)

// pfcSpec registers the lossless-fabric extension: the paper's intro
// cites DCQCN [18] as the ECN consumer for RDMA fabrics. PFC alone
// keeps the fabric lossless but pauses whole upstream links, so a
// victim flow to an idle destination stalls behind the congested one
// (head-of-line blocking). Adding ECN marking + DCQCN rate control
// shrinks the standing queue, all but eliminating pauses and freeing
// the victim. As wired, s1's trunk port has no buffer bound, so the
// runs' 0 drops are that unbounded queue's, not PFC's.
func pfcSpec() Spec {
	return Spec{
		ID:    "pfc",
		Title: "Extension: PFC head-of-line blocking and its DCQCN+ECN remedy",
		Run:   runPFC,
	}
}

// pfcWiring is the two-switch fabric of the pfc experiment: five sender
// hosts on s1, a shared 10G trunk s1->s2, and two sinks on s2 — hot
// behind a 1G egress (marking at 12 packets when ecnMarking is set) and fast
// behind a 10G one. The Fabric lists Hosts as hot sink, fast sink,
// senders; Switches as s1 (port 0 = trunk), s2 (port 0 = slow egress,
// port 1 = fast egress). Serial only.
func pfcWiring(ecnMarking bool) wiring {
	return wiring{serial: func(eng *sim.Engine) *topo.Fabric {
		hotSink := netsim.NewHost(eng, 8)
		fastSink := netsim.NewHost(eng, 9)

		s2 := netsim.NewSwitch(eng, 2)
		var marker ecn.Marker
		if ecnMarking {
			marker = &ecn.PerPort{K: units.Packets(12)}
		}
		fifo := func(rate units.Rate, to netsim.Node, cfg netsim.PortConfig) *netsim.Port {
			cfg.Sched = sched.NewFIFO()
			return netsim.NewPort(netsim.NewLink(eng, rate, motiveDelay, to), cfg)
		}
		s2.AddPort(fifo(1*units.Gbps, hotSink, netsim.PortConfig{BufferBytes: units.Packets(100), Marker: marker}))
		s2.AddPort(fifo(10*units.Gbps, fastSink, netsim.PortConfig{}))

		s1 := netsim.NewSwitch(eng, 1)
		s1.AddPort(fifo(10*units.Gbps, s2, netsim.PortConfig{}))

		// Reverse paths for CNPs: each sender host hangs off s1.
		hosts := []*netsim.Host{hotSink, fastSink}
		s1Ports := map[pkt.NodeID]int{}
		for i := 0; i < 5; i++ {
			h := netsim.NewHost(eng, pkt.NodeID(10+i))
			h.AttachNIC(netsim.NewLink(eng, 10*units.Gbps, motiveDelay, s1))
			s1Ports[h.NodeID()] = s1.AddPort(fifo(10*units.Gbps, h, netsim.PortConfig{}))
			hosts = append(hosts, h)
		}
		s1.SetRoute(func(p *pkt.Packet) int {
			if idx, ok := s1Ports[p.Dst]; ok {
				return idx
			}
			return 0 // trunk toward s2
		})
		// The sinks' NICs point back at s2 so their CNPs return to the
		// senders through the reverse trunk.
		hotSink.AttachNIC(netsim.NewLink(eng, 1*units.Gbps, motiveDelay, s2))
		fastSink.AttachNIC(netsim.NewLink(eng, 10*units.Gbps, motiveDelay, s2))
		backIdx := s2.AddPort(fifo(10*units.Gbps, s1, netsim.PortConfig{}))
		s2.SetRoute(func(p *pkt.Packet) int {
			switch p.Dst {
			case 8:
				return 0
			case 9:
				return 1
			default:
				return backIdx
			}
		})
		return &topo.Fabric{Eng: eng, Hosts: hosts, Switches: []*netsim.Switch{s1, s2}}
	}}
}

func runPFC(opt Options) (*Result, error) {
	// DCQCN needs a few milliseconds to converge out of its alpha=1
	// initialization; the run is cheap, so Quick keeps the full
	// duration.
	dur := 60 * time.Millisecond
	res := &Result{
		ID:    "pfc",
		Title: "4 hot flows to a 1G sink + 1 victim flow to an idle 10G sink, shared trunk, PFC fabric",
		Headers: []string{
			"scheme", "pauses", "victim_gbps", "hot_gbps", "fabric_drops",
		},
	}

	var victims [2]float64
	for i, scheme := range []string{"pfc-only", "pfc+dcqcn(ecn)"} {
		withDCQCN := i == 1
		var (
			fc       *netsim.PFC
			victimRx *transport.DCQCNReceiver
		)
		fab, err := opt.runPacket(pfcWiring(withDCQCN), func(fab *topo.Fabric) time.Duration {
			eng, hotSink, fastSink, senders := fab.Eng, fab.Host(0), fab.Host(1), fab.Hosts[2:]
			fc = netsim.NewPFC(eng, units.Packets(40), units.Packets(20))
			fc.Observe(opt.busFor(fab, fab.Switches[1]), fab.Switches[1].NodeID())
			fc.Guard(fab.Switches[1])
			fc.Upstream(fab.Switches[0].Port(0))

			cfg := transport.DCQCNConfig{StartRate: 10 * units.Gbps}
			if !withDCQCN {
				// Rate control disabled: the floor equals the start rate, so
				// CNP cuts have no effect (and no marking happens anyway).
				cfg.MinRate = 10 * units.Gbps
			}
			send := func(src *netsim.Host, f pkt.FlowID, dst *netsim.Host) *transport.DCQCNReceiver {
				cfg.Obs = opt.busFor(fab, src)
				s := transport.NewDCQCNSender(eng, src, f, dst.NodeID(), 0, cfg)
				r := transport.NewDCQCNReceiver(eng, dst, f, src.NodeID(), 0)
				s.Start()
				return r
			}
			for j := 0; j < 4; j++ {
				send(senders[j], pkt.FlowID(j+1), hotSink)
			}
			victimRx = send(senders[4], 100, fastSink)
			return dur
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", scheme, err)
		}
		s1, s2 := fab.Switches[0], fab.Switches[1]
		victims[i] = float64(units.RateOf(victimRx.RxBytes(), dur)) / float64(units.Gbps)
		res.AddRow(scheme, fmt.Sprintf("%d", fc.Pauses()),
			fmt.Sprintf("%.2f", victims[i]),
			fmt.Sprintf("%.2f", float64(units.RateOf(fab.Host(0).RxBytes(), dur))/float64(units.Gbps)),
			fmt.Sprintf("%d", s2.Port(0).DropPackets()+s2.Port(1).DropPackets()+s1.Port(0).DropPackets()))
	}
	res.AddNote("0 fabric drops only because s1's trunk port has no buffer bound (it backs up by hundreds of MB), so neither run shows PFC keeping a fabric lossless; the victim flow to the idle sink gets %.2f Gbps without end-to-end ECN control and %.2f Gbps with DCQCN, but behind that unbounded trunk this is not evidence of pause storms", victims[0], victims[1])
	return res, nil
}
