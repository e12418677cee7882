package experiment

import (
	"fmt"
	"time"

	"pmsb/internal/core"
	"pmsb/internal/ecn"
	"pmsb/internal/pkt"
	"pmsb/internal/topo"
	"pmsb/internal/transport"
	"pmsb/internal/units"
)

// incastSpec registers the incast extension: a partition/aggregate
// query fans out to N workers whose synchronized 64KB responses slam
// one bottleneck port — the classic datacenter micro-burst scenario
// (the paper's references [13], [14] study exactly this). It compares
// marking schemes on query completion time (the slowest flow) and
// packet drops, showing that early (dequeue) congestion notification
// tames the burst.
func incastSpec() Spec {
	return Spec{
		ID:    "incast",
		Title: "Extension: incast micro-burst absorption across marking schemes",
		Run:   runIncast,
	}
}

func runIncast(opt Options) (*Result, error) {
	// Initial window 2 keeps the first-RTT burst (2 x senders packets)
	// inside the buffer so the run shows how each scheme's feedback
	// controls the ramp, not just unavoidable first-window losses.
	senders := 48
	responseSize := int64(64_000)
	if opt.Quick {
		senders = 24
	}
	res := &Result{
		ID:    "incast",
		Title: fmt.Sprintf("Incast: %d synchronized %dKB responses into one port", senders, responseSize/1000),
		Headers: []string{
			"scheme", "query_completion_ms", "mean_fct_ms", "drops", "retransmits",
		},
	}

	type scheme struct {
		name   string
		marker topo.MarkerFactory
	}
	portK := units.Packets(12)
	schemes := []scheme{
		{"dctcp-enqueue", func() ecn.Marker { return &ecn.PerQueueStandard{K: units.Packets(16)} }},
		{"pmsb-enqueue", func() ecn.Marker { return &core.PMSB{PortK: portK} }},
		{"pmsb-dequeue", func() ecn.Marker { return &core.PMSB{PortK: portK, MarkPoint: ecn.AtDequeue} }},
		{"tcn", func() ecn.Marker { return &ecn.TCN{Threshold: units.Serialization(portK, motiveRate)} }},
		{"no-ecn", nil},
	}

	// qct and drops of pmsb-dequeue and no-ecn, the schemes the claims compare.
	qct, drops := map[string]float64{}, map[string]float64{}
	for _, sc := range schemes {
		var done int
		var worst time.Duration
		var sum time.Duration
		var flows []*transport.Flow
		fab, err := opt.runPacket(dumbbellWiring(topo.DumbbellConfig{
			Senders:    senders,
			AccessRate: motiveRate,
			Delay:      motiveDelay,
			Bottleneck: topo.PortProfile{
				Weights:     topo.EqualWeights(1),
				NewSched:    topo.FIFOFactory(),
				NewMarker:   sc.marker,
				BufferBytes: units.Packets(100),
			},
		}), func(fab *topo.Fabric) time.Duration {
			recv := fab.Host(0)
			for i := 1; i <= senders; i++ {
				f := transport.NewFlow(fab.Eng, fab.Host(i), recv, pkt.FlowID(i), 0, responseSize,
					transport.Config{InitWindow: 2, MinRTO: time.Millisecond, Obs: opt.busFor(fab, fab.Host(i))},
					func(s *transport.Sender) {
						done++
						sum += s.FCT()
						if s.FCT() > worst {
							worst = s.FCT()
						}
					})
				flows = append(flows, f)
				f.Sender.Start() // all at t=0: the synchronized burst
			}
			return 5 * time.Second
		})
		if err != nil {
			return nil, fmt.Errorf("incast %s: %w", sc.name, err)
		}
		var retx int64
		for _, f := range flows {
			retx += f.Sender.Retransmits()
		}
		if done != senders {
			res.AddNote("%s: only %d/%d responses completed", sc.name, done, senders)
		}
		meanMS := 0.0
		if done > 0 {
			meanMS = (sum / time.Duration(done)).Seconds() * 1e3
		}
		bottleneckDrops := fab.Switches[0].Port(0).DropPackets()
		qct[sc.name], drops[sc.name] = worst.Seconds(), float64(bottleneckDrops)
		res.AddRow(
			sc.name,
			fmt.Sprintf("%.3f", worst.Seconds()*1e3),
			fmt.Sprintf("%.3f", meanMS),
			fmt.Sprintf("%d", bottleneckDrops),
			fmt.Sprintf("%d", retx),
		)
	}
	res.below("PMSB dequeue marking drops less of the burst than drop-tail", "-", drops["pmsb-dequeue"], drops["no-ecn"])
	res.below("PMSB dequeue marking completes the query sooner than drop-tail (no RTO)", "-", qct["pmsb-dequeue"], qct["no-ecn"])
	return res, nil
}
