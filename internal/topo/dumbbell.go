package topo

import (
	"time"

	"pmsb/internal/netsim"
	"pmsb/internal/pkt"
	"pmsb/internal/sched"
	"pmsb/internal/sim"
	"pmsb/internal/units"
)

// DumbbellConfig parametrizes a single-bottleneck topology: N sender
// hosts and one receiver attached to one switch. The switch->receiver
// port is the bottleneck and carries the experiment's scheduler/marker;
// reverse (ACK) ports are plain FIFOs.
type DumbbellConfig struct {
	// Senders is the number of sender hosts.
	Senders int
	// AccessRate is the sender/receiver link rate (default 10 Gbps).
	AccessRate units.Rate
	// BottleneckRate is the switch->receiver rate (default AccessRate).
	BottleneckRate units.Rate
	// Delay is the per-link one-way propagation delay (default 5us).
	Delay time.Duration
	// Bottleneck configures the bottleneck port (required).
	Bottleneck PortProfile
}

// Dumbbell is the instantiated topology. Its Fabric lists the receiver
// first (Hosts[0]) and then the senders, the PathGraph's host order.
type Dumbbell struct {
	Fabric
	// Senders are the sender hosts (IDs 2..Senders+1).
	Senders []*netsim.Host
	// Recv is the receiver host (ID 1).
	Recv *netsim.Host
	// Switch is the single switch.
	Switch *netsim.Switch
	// Bottleneck is the switch->receiver port under test.
	Bottleneck *netsim.Port

	cfg DumbbellConfig
}

// NewDumbbell wires the topology on one engine; the dumbbell has no
// sharded form.
func NewDumbbell(eng *sim.Engine, cfg DumbbellConfig) *Dumbbell {
	if cfg.AccessRate == 0 {
		cfg.AccessRate = 10 * units.Gbps
	}
	if cfg.BottleneckRate == 0 {
		cfg.BottleneckRate = cfg.AccessRate
	}
	if cfg.Delay == 0 {
		cfg.Delay = 5 * time.Microsecond
	}
	const swID = 1000

	d := &Dumbbell{Fabric: Fabric{Eng: eng}, cfg: cfg}
	d.Switch = netsim.NewSwitch(eng, swID)
	d.Recv = netsim.NewHost(eng, 1)
	d.Recv.AttachNIC(netsim.NewLink(eng, cfg.AccessRate, cfg.Delay, d.Switch))

	// Port 0: bottleneck toward the receiver.
	d.Bottleneck = cfg.Bottleneck.newPort(eng, netsim.NewLink(eng, cfg.BottleneckRate, cfg.Delay, d.Recv))
	d.Switch.AddPort(d.Bottleneck)

	// Ports 1..N: FIFO reverse ports toward each sender.
	d.Hosts = make([]*netsim.Host, 1+cfg.Senders)
	d.Hosts[0] = d.Recv
	d.Senders = d.Hosts[1:]
	for i := range d.Senders {
		id := pkt.NodeID(2 + i)
		h := netsim.NewHost(eng, id)
		h.AttachNIC(netsim.NewLink(eng, cfg.AccessRate, cfg.Delay, d.Switch))
		port := netsim.NewPort(netsim.NewLink(eng, cfg.AccessRate, cfg.Delay, h),
			netsim.PortConfig{Sched: sched.NewFIFO()})
		d.Switch.AddPort(port)
		d.Senders[i] = h
	}
	d.Switches = []*netsim.Switch{d.Switch}

	d.Switch.SetRoute(func(p *pkt.Packet) int {
		if p.Dst == 1 {
			return 0
		}
		i := int(p.Dst) - 2
		if i >= 0 && i < cfg.Senders {
			return 1 + i
		}
		return -1
	})
	return d
}

// BaseRTT returns the unloaded sender->receiver->sender RTT estimate.
func (d *Dumbbell) BaseRTT() time.Duration {
	// Two hops each way: host NIC -> switch -> destination.
	prop := 4 * d.cfg.Delay
	dataSer := units.Serialization(units.MTU, d.cfg.AccessRate) +
		units.Serialization(units.MTU, d.cfg.BottleneckRate)
	ackSer := 2 * units.Serialization(units.AckSize, d.cfg.AccessRate)
	return prop + dataSer + ackSer
}
