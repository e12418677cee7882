package pmsb_test

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"testing"
	"time"

	"pmsb/internal/core"
	"pmsb/internal/ecn"
	"pmsb/internal/experiment"
	"pmsb/internal/netsim"
	"pmsb/internal/obs"
	"pmsb/internal/pkt"
	"pmsb/internal/sched"
	"pmsb/internal/sim"
	"pmsb/internal/topo"
	"pmsb/internal/transport"
	"pmsb/internal/units"
)

// benchExperiment runs one registered experiment per iteration in Quick
// mode. There is one benchmark per paper table and figure; the combined
// sweeps fct-dwrr / fct-wfq regenerate Figures 16-21 / 22-27 in one run.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	spec, err := experiment.Lookup(id)
	if err != nil {
		b.Fatal(err)
	}
	opt := experiment.Options{Quick: true, Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := spec.Run(opt)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

// Table I and the motivation figures (Section II).
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkFig1(b *testing.B)   { benchExperiment(b, "fig1") }
func BenchmarkFig2(b *testing.B)   { benchExperiment(b, "fig2") }
func BenchmarkFig3(b *testing.B)   { benchExperiment(b, "fig3") }
func BenchmarkFig4(b *testing.B)   { benchExperiment(b, "fig4") }
func BenchmarkFig5(b *testing.B)   { benchExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)   { benchExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)   { benchExperiment(b, "fig7") }

// Static-flow evaluation (Section VI-A).
func BenchmarkFig8(b *testing.B)  { benchExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)  { benchExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B) { benchExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B) { benchExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B) { benchExperiment(b, "fig12") }
func BenchmarkFig13(b *testing.B) { benchExperiment(b, "fig13") }
func BenchmarkFig14(b *testing.B) { benchExperiment(b, "fig14") }
func BenchmarkFig15(b *testing.B) { benchExperiment(b, "fig15") }

// Large-scale FCT (Section VI-B). The combined sweeps cover every
// per-figure statistic; the individual figure IDs remain runnable via
// cmd/pmsbsim (each re-runs the sweep and projects one column).
func BenchmarkFctDWRR(b *testing.B) { benchExperiment(b, "fct-dwrr") } // Figures 16-21
func BenchmarkFctWFQ(b *testing.B)  { benchExperiment(b, "fct-wfq") }  // Figures 22-27

// Theorem IV.1 validation.
func BenchmarkTheorem41(b *testing.B) { benchExperiment(b, "theorem41") }

// Extensions: prose-claim validation and ablations (see DESIGN.md).
func BenchmarkPool(b *testing.B)           { benchExperiment(b, "pool") }
func BenchmarkAblationPortK(b *testing.B)  { benchExperiment(b, "ablation-portk") }
func BenchmarkAblationFilter(b *testing.B) { benchExperiment(b, "ablation-filter") }
func BenchmarkIncast(b *testing.B)         { benchExperiment(b, "incast") }
func BenchmarkAblationRTTThresh(b *testing.B) {
	benchExperiment(b, "ablation-rttthresh")
}
func BenchmarkFctWeighted(b *testing.B) { benchExperiment(b, "fct-weighted") }
func BenchmarkAnalysisValidation(b *testing.B) {
	benchExperiment(b, "analysis-validation")
}
func BenchmarkAblationAverage(b *testing.B) { benchExperiment(b, "ablation-average") }

// --- Parallel runner -----------------------------------------------------

// benchRunMany measures the experiment runner end to end on a fixed
// sample of fast experiments at a given worker count. Comparing the
// Jobs1 and JobsN variants shows the fan-out speedup on multi-core
// machines (and its absence on single-core ones); the output payload is
// identical in both, which TestJobsDeterminism asserts.
func benchRunMany(b *testing.B, jobs int) {
	b.Helper()
	var specs []experiment.Spec
	for _, id := range []string{"table1", "fig5", "fig4", "incast", "ablation-average"} {
		spec, err := experiment.Lookup(id)
		if err != nil {
			b.Fatal(err)
		}
		specs = append(specs, spec)
	}
	opt := experiment.Options{Quick: true, Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, manifest, err := experiment.RunMany(specs, opt, jobs)
		if err != nil {
			b.Fatal(err)
		}
		if len(results) != len(specs) || manifest.TotalEvents == 0 {
			b.Fatal("incomplete run")
		}
	}
}

func BenchmarkRunManyJobs1(b *testing.B) { benchRunMany(b, 1) }
func BenchmarkRunManyJobsN(b *testing.B) { benchRunMany(b, 0) } // NumCPU workers

// --- Engine and algorithm micro-benchmarks -------------------------------
//
// Fabric-scale runs (fat-trees serial, sharded and traced, the fluid
// engine at scale, the event queue under load) are timed end to end and
// layer by layer by the repository benchmark in benchmark/ (`make
// benchmark`), which owns its workloads; only per-decision and
// per-packet costs are measured here.

// BenchmarkPMSBDecision measures the raw per-packet cost of Algorithm 1.
func BenchmarkPMSBDecision(b *testing.B) {
	eng := sim.NewEngine()
	s := sched.NewDWRR([]float64{1, 1, 1, 1}, units.MTU, sched.WithClock(eng.Now))
	link := netsim.NewLink(eng, 10*units.Gbps, time.Microsecond, nullNode{})
	port := netsim.NewPort(link, netsim.PortConfig{Sched: s})
	m := &core.PMSB{PortK: units.Packets(12)}
	p := &pkt.Packet{ECT: true, Size: units.MTU}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ShouldMark(port, i%4, p)
	}
}

// BenchmarkMQECNDecision measures MQ-ECN's per-packet cost for contrast
// (the paper argues PMSB has RED-level complexity while MQ-ECN needs
// round state).
func BenchmarkMQECNDecision(b *testing.B) {
	eng := sim.NewEngine()
	s := sched.NewDWRR([]float64{1, 1, 1, 1}, units.MTU, sched.WithClock(eng.Now))
	link := netsim.NewLink(eng, 10*units.Gbps, time.Microsecond, nullNode{})
	port := netsim.NewPort(link, netsim.PortConfig{Sched: s})
	m := &ecn.MQECN{RTT: 80 * time.Microsecond, Lambda: 1}
	p := &pkt.Packet{ECT: true, Size: units.MTU}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ShouldMark(port, i%4, p)
	}
}

// BenchmarkPacketForwarding measures raw simulator throughput: packets
// pushed through a FIFO port and link per second of wall time. Packets
// come from the pool and the sink releases them, so the steady state is
// allocation-free (guarded by TestPortSendZeroAlloc in internal/netsim).
func BenchmarkPacketForwarding(b *testing.B) {
	eng := sim.NewEngine()
	sink := nullNode{}
	link := netsim.NewLink(eng, 100*units.Gbps, 0, sink)
	port := netsim.NewPort(link, netsim.PortConfig{Sched: sched.NewFIFO()})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pkt.Get()
		p.ID = uint64(i)
		p.Size = units.MTU
		p.ECT = true
		port.Send(p)
		if i%64 == 63 {
			eng.Run()
		}
	}
	eng.Run()
}

// BenchmarkDCTCPFlow measures one complete 1MB DCTCP transfer over a
// dumbbell per iteration (transport + scheduler + marking end to end).
func BenchmarkDCTCPFlow(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		d := topo.NewDumbbell(eng, topo.DumbbellConfig{
			Senders: 1,
			Bottleneck: topo.PortProfile{
				Weights:   topo.EqualWeights(1),
				NewSched:  topo.FIFOFactory(),
				NewMarker: func() ecn.Marker { return &core.PMSB{PortK: units.Packets(12)} },
			},
		})
		done := false
		f := transport.NewFlow(eng, d.Senders[0], d.Recv, 1, 0, 1_000_000,
			transport.Config{}, func(*transport.Sender) { done = true })
		f.Sender.Start()
		eng.RunUntil(time.Second)
		if !done {
			b.Fatal("flow did not complete")
		}
	}
}

// benchTraceEvents synthesizes a realistic event mix (the per-packet
// enqueue/dequeue/mark cycle with occupancy) for the encoder
// micro-benchmarks.
func benchTraceEvents(n int) []obs.Event {
	events := make([]obs.Event, n)
	for i := range events {
		ev := obs.Event{
			Seq:  uint64(i),
			T:    time.Duration(i) * 800,
			Node: pkt.NodeID(1 + i%80), Port: int32(i % 8), Queue: int32(i % 4),
			Pkt: uint64(i), Size: units.MTU,
			PortBytes: int64((i % 50) * units.MTU), QueueBytes: int64((i % 13) * units.MTU),
		}
		switch i % 16 {
		case 3:
			ev.Kind = obs.KindMark
		case 7:
			ev.Kind = obs.KindDequeue
		default:
			ev.Kind = obs.KindEnqueue
		}
		events[i] = ev
	}
	return events
}

// BenchmarkTraceEncodeJSONL / ...Binary measure the per-event encode
// cost of the two codecs on the same 64k-event stream: the gap is why
// traces are stored in binary only and JSONL is an export.
func BenchmarkTraceEncodeJSONL(b *testing.B) {
	events := benchTraceEvents(1 << 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw := obs.NewSpillWriter(io.Discard, obs.FormatJSONL)
		if err := sw.Spill(events); err != nil {
			b.Fatal(err)
		}
		if err := sw.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTraceEncodeBinary(b *testing.B) {
	events := benchTraceEvents(1 << 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := obs.WriteBinary(io.Discard, events); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceDecodeBinary / BenchmarkTraceReduce measure the read
// side on the same 64k-event stream: ReadBinary materializing every
// event, and the streamed pass pmsbstat's report runs (kind counts,
// per-queue depths and the mark-rate timeline) with no event slice.
func BenchmarkTraceDecodeBinary(b *testing.B) {
	raw := benchTraceBytes(b)
	b.ReportAllocs()
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := obs.ReadBinary(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTraceReduce(b *testing.B) {
	raw := benchTraceBytes(b)
	b.ReportAllocs()
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := obs.NewStreamStats(obs.StreamOptions{Counts: true, Depths: true, MarkBin: 100 * time.Microsecond})
		if err := st.Reduce(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}

// benchTraceBytes is benchTraceEvents(1 << 16) in the binary format.
func benchTraceBytes(b *testing.B) []byte {
	var buf bytes.Buffer
	if err := obs.WriteBinary(&buf, benchTraceEvents(1<<16)); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// nullNode swallows packets (benchmark sink): as the terminal consumer
// it releases each packet back to the pool.
type nullNode struct{}

func (nullNode) NodeID() pkt.NodeID    { return 0 }
func (nullNode) Receive(p *pkt.Packet) { pkt.Release(p) }

func BenchmarkPFC(b *testing.B) { benchExperiment(b, "pfc") }

func BenchmarkAblationMarkPoint(b *testing.B) { benchExperiment(b, "ablation-markpoint") }

// BenchmarkFatTreeBuild measures topology construction cost and memory
// footprint at k in {8, 16, 32} for both the packet fabric and the
// flow-level path graph, reporting bytes/port (the roadmap's k=32
// memory-gap number: the packet engine's ~41k-port footprint vs the
// flow graph's link array).
func BenchmarkFatTreeBuild(b *testing.B) {
	for _, k := range []int{8, 16, 32} {
		k := k
		ports := 5 * k * k * k / 4 // k^3/4 host NICs + 4 switch tiers' worth of ports
		b.Run(fmt.Sprintf("packet/k%d", k), func(b *testing.B) {
			b.ReportAllocs()
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			var ft *topo.FatTree
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ft = topo.NewFatTree(sim.NewEngine(), topo.FatTreeConfig{
					K: k,
					Ports: topo.PortProfile{
						Weights:       topo.EqualWeights(8),
						NewSchedBlock: topo.FIFOBlocks(),
						SharedMarker:  &core.PMSB{PortK: units.Packets(12)},
						BufferBytes:   units.Packets(250),
					},
				})
			}
			b.StopTimer()
			runtime.GC()
			runtime.ReadMemStats(&after)
			if ft != nil && ft.NumHosts() != k*k*k/4 {
				b.Fatal("bad fabric")
			}
			live := float64(after.HeapAlloc) - float64(before.HeapAlloc)
			if live > 0 {
				b.ReportMetric(live/float64(ports), "bytes/port")
			}
		})
		b.Run(fmt.Sprintf("flow/k%d", k), func(b *testing.B) {
			b.ReportAllocs()
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			var g *topo.PathGraph
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g = topo.FatTreePaths(topo.FatTreeConfig{K: k})
			}
			b.StopTimer()
			runtime.GC()
			runtime.ReadMemStats(&after)
			if g == nil || g.Hosts != k*k*k/4 {
				b.Fatal("bad graph")
			}
			live := float64(after.HeapAlloc) - float64(before.HeapAlloc)
			if live > 0 {
				b.ReportMetric(live/float64(ports), "bytes/port")
			}
		})
	}
}
