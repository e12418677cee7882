package experiment_test

import (
	"fmt"
	"time"

	"pmsb/internal/core"
	"pmsb/internal/ecn"
	"pmsb/internal/experiment"
	"pmsb/internal/topo"
	"pmsb/internal/units"
)

// Per-port marking against PMSB on a two-queue bottleneck with equal
// weights: one flow in queue 1 against eight in queue 2. Per-port
// marking cuts the lone flow on congestion queue 2 causes; PMSB's
// selective blindness restores its fair share and keeps the link full.
// The registered experiments fig3 and fig8 run the same comparison.
func ExampleFlowSpec() {
	portK := units.Packets(16)
	for _, scheme := range []struct {
		name   string
		marker topo.MarkerFactory
	}{
		{"per-port", func() ecn.Marker { return &ecn.PerPort{K: portK} }},
		{"pmsb", func() ecn.Marker { return &core.PMSB{PortK: portK} }},
	} {
		spec := experiment.FlowSpec(experiment.FlowConfig{
			Title:    scheme.name,
			Services: []int{0, 1, 1, 1, 1, 1, 1, 1, 1},
			Bottleneck: topo.PortProfile{
				Weights:   topo.EqualWeights(2),
				NewSched:  topo.WFQFactory(),
				NewMarker: scheme.marker,
			},
			Rate:  10 * units.Gbps,
			Delay: 2 * time.Microsecond,
			Dur:   50 * time.Millisecond,
		})
		res, err := spec.Run(experiment.Options{Seed: 1})
		if err != nil {
			fmt.Println(err)
			return
		}
		row := map[string]string{}
		for _, r := range res.Rows {
			row[r[0]] = r[1]
		}
		fmt.Printf("%-8s q1 %s Gbps, q2 %s Gbps, total %s Gbps\n",
			scheme.name, row["q1-gbps"], row["q2-gbps"], row["total-gbps"])
	}
	// Output:
	// per-port q1 2.92 Gbps, q2 7.08 Gbps, total 10.00 Gbps
	// pmsb     q1 5.00 Gbps, q2 5.00 Gbps, total 10.00 Gbps
}
