package pmsb_test

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"testing"
	"time"

	"pmsb/internal/core"
	"pmsb/internal/ecn"
	"pmsb/internal/obs"
	"pmsb/internal/sim"
	"pmsb/internal/topo"
	"pmsb/internal/transport"
	"pmsb/internal/units"
)

// These tests are the scheduler acceptance gate: two real netsim
// workloads, each run once under the calendar queue and once under the
// reference heap, must produce identical observability traces (every
// enqueue, dequeue, mark, and flow event, field for field, in sequence
// — hence byte-identical trace files: the codec is canonical), identical
// FCTs, and identical processed-event counts. Any divergence in event
// execution order — however slight — shows up here, because the trace
// records the order side effects actually happened in.

// workloadResult captures everything a workload run exposes.
type workloadResult struct {
	trace     []obs.Event
	fcts      []time.Duration
	processed uint64
}

// runDumbbellWorkload is recorded workload 1: four DCTCP senders
// sharing a PMSB-marked dumbbell bottleneck, with per-port tracing on
// the bottleneck switch.
func runDumbbellWorkload(t *testing.T, kind sim.QueueKind) workloadResult {
	t.Helper()
	eng := sim.NewEngineWithQueue(kind)
	bus := obs.NewTraceBus(1 << 16)
	d := topo.NewDumbbell(eng, topo.DumbbellConfig{
		Senders: 4,
		Bottleneck: topo.PortProfile{
			Weights:   topo.EqualWeights(4),
			NewSched:  topo.DWRRFactory(eng),
			NewMarker: func() ecn.Marker { return &core.PMSB{PortK: units.Packets(12)} },
		},
	})
	d.Switch.Observe(bus)

	var fid transport.FlowIDGen
	var flows []*transport.Flow
	for i := 0; i < 4; i++ {
		f := transport.NewFlow(eng, d.Senders[i], d.Recv, fid.Next(), i%4, 400_000,
			transport.Config{Obs: bus}, nil)
		eng.ScheduleAt(time.Duration(i)*20*time.Microsecond, f.Sender.Start)
		flows = append(flows, f)
	}
	eng.RunUntil(100 * time.Millisecond)
	// The dumbbell parks RTO timers beyond the window: this workload is
	// the netsim-driven gate on the calendar's overflow migration.
	if q := eng.Stats().Queue; kind == sim.QueueCalendar && q.Migrations == 0 {
		t.Fatalf("dumbbell calendar engine never migrated an overflow event: %+v", q)
	}

	res := workloadResult{processed: eng.Processed()}
	for i, f := range flows {
		if !f.Sender.Finished() {
			t.Fatalf("dumbbell flow #%d did not finish", i)
		}
		res.fcts = append(res.fcts, f.Sender.FCT())
	}
	res.trace = bus.Ring().Events()
	return res
}

// runLeafSpineWorkload is recorded workload 2: 40 staggered flows over
// the 48-host leaf-spine fabric with DWRR + PMSB on every port, tracing
// one leaf and one spine (enough to fingerprint the fabric's entire
// event order without a gigantic ring).
func runLeafSpineWorkload(t *testing.T, kind sim.QueueKind) workloadResult {
	t.Helper()
	eng := sim.NewEngineWithQueue(kind)
	bus := obs.NewTraceBus(1 << 16)
	ls := topo.NewLeafSpine(eng, topo.LeafSpineConfig{
		Ports: topo.PortProfile{
			Weights:     topo.EqualWeights(8),
			NewSched:    topo.DWRRFactory(eng),
			NewMarker:   func() ecn.Marker { return &core.PMSB{PortK: units.Packets(12)} },
			BufferBytes: units.Packets(250),
		},
	})
	ls.Leaves[0].Observe(bus)
	ls.Spines[0].Observe(bus)

	var fid transport.FlowIDGen
	var flows []*transport.Flow
	for i := 0; i < 40; i++ {
		src, dst := i%48, (i*13+5)%48
		if src == dst {
			dst = (dst + 1) % 48
		}
		f := transport.NewFlow(eng, ls.Host(src), ls.Host(dst), fid.Next(), i%8, 100_000,
			transport.Config{InitWindow: 16, Obs: bus}, nil)
		eng.ScheduleAt(time.Duration(i)*30*time.Microsecond, f.Sender.Start)
		flows = append(flows, f)
	}
	eng.RunUntil(200 * time.Millisecond)

	res := workloadResult{processed: eng.Processed()}
	for i, f := range flows {
		if !f.Sender.Finished() {
			t.Fatalf("leafspine flow #%d did not finish", i)
		}
		res.fcts = append(res.fcts, f.Sender.FCT())
	}
	res.trace = bus.Ring().Events()
	return res
}

func assertIdenticalRuns(t *testing.T, name string, heap, cal workloadResult) {
	t.Helper()
	if heap.processed != cal.processed {
		t.Errorf("%s: processed events differ: heap %d, calendar %d",
			name, heap.processed, cal.processed)
	}
	if len(heap.fcts) != len(cal.fcts) {
		t.Fatalf("%s: FCT counts differ", name)
	}
	for i := range heap.fcts {
		if heap.fcts[i] != cal.fcts[i] {
			t.Errorf("%s: flow %d FCT differs: heap %v, calendar %v",
				name, i, heap.fcts[i], cal.fcts[i])
		}
	}
	for i := 0; i < len(heap.trace) && i < len(cal.trace); i++ {
		if heap.trace[i] != cal.trace[i] {
			t.Fatalf("%s: traces diverge at event %d:\n  heap:     %+v\n  calendar: %+v",
				name, i, heap.trace[i], cal.trace[i])
		}
	}
	if len(heap.trace) != len(cal.trace) {
		t.Fatalf("%s: trace lengths differ: heap %d events, calendar %d events",
			name, len(heap.trace), len(cal.trace))
	}
}

// The sharded differential gate: the same fat-tree workloads, run once
// serially and once split across coordinator shards, must be
// byte-identical — same observability traces, same FCTs, same total
// processed events. obs.Bus assigns sequence numbers in emission order
// and is unsynchronized, so each bus must only ever be fed from one
// shard: the fat-tree workloads use one bus per pod (a pod never
// splits), and the serial baseline uses the same split so the traces
// are comparable event by event.

// busTrace concatenates the buses' retained events, bus after bus, so
// the event-level divergence reporting covers all of them.
func busTrace(buses ...*obs.Bus) []obs.Event {
	var out []obs.Event
	for _, b := range buses {
		out = append(out, b.Ring().Events()...)
	}
	return out
}

// Sharded runs must also be self-deterministic: two identical 2-shard
// runs may not diverge no matter how goroutines are scheduled. Run
// under -race in CI, this doubles as the shard coordinator's race check
// on a real workload.
func TestDifferentialShardedDeterminism(t *testing.T) {
	specs := fatTreeCrossPodSpecs()
	const until = 50 * time.Millisecond
	a := runShardedFatTree(t, 2, specs, until)
	if len(a.trace) == 0 {
		t.Fatal("empty trace: the workload recorded nothing")
	}
	assertIdenticalRuns(t, "fattree 2shard-vs-2shard", a, runShardedFatTree(t, 2, specs, until))
}

// runShardedFatTree runs a k=8 fat-tree workload with cross-pod
// traffic. Observability uses one bus per pod: a pod's hosts, edge and
// aggregation switches always share one shard (pods are
// block-partitioned and never split), so each bus is single-shard-fed
// and its event order is comparable across serial and every shard
// count. Core switches are not observed — their shard assignment moves
// with the shard count. flows returns the flow set so workloads can
// vary; each spec is (src host, dst host, size).
func runShardedFatTree(t *testing.T, shards int,
	specs [][3]int, until time.Duration) workloadResult {
	t.Helper()
	podBus := make([]*obs.Bus, 8)
	for p := range podBus {
		podBus[p] = obs.NewTraceBus(1 << 14)
	}
	res := driveShardedFatTree(t, shards, specs, until, podBus)
	res.trace = busTrace(podBus...)
	return res
}

// driveShardedFatTree is the workload core of runShardedFatTree with
// the observability buses supplied by the caller (one per pod), so
// spill-backed and plain-ring runs share the exact same simulation.
// Optional setup hooks run after construction, before RunUntil — the
// runtime-introspection differential uses them to attach monitors and
// enable stats (exactly one of coord/eng is non-nil).
func driveShardedFatTree(t *testing.T, shards int,
	specs [][3]int, until time.Duration, podBus []*obs.Bus,
	setup ...func(coord *sim.Coordinator, eng *sim.Engine)) workloadResult {
	t.Helper()
	const k = 8
	hostsPerPod := (k / 2) * (k / 2) // 16
	cfg := topo.FatTreeConfig{
		K: k,
		// Unique fabric cable lengths keep every same-instant cross-shard
		// arrival pair distinguishable by (at, schedAt), the precondition
		// for the sharded key to reproduce serial tie-breaks (see
		// FatTreeConfig.FabricDelaySkew).
		FabricDelaySkew: time.Nanosecond,
		Ports: topo.PortProfile{
			Weights:      topo.EqualWeights(4),
			NewSchedWith: topo.DWRRSched,
			NewMarker:    func() ecn.Marker { return &core.PMSB{PortK: units.Packets(12)} },
			BufferBytes:  units.Packets(250),
		},
	}
	ft, coord := buildFatTree(shards, cfg)

	// Fingerprint switch-level order in two pods (first and last): their
	// edge and agg switches are pod-local on every partition.
	for _, p := range []int{0, len(podBus) - 1} {
		half := k / 2
		ft.Edges[p*half].Observe(podBus[p])
		ft.Aggs[p*half].Observe(podBus[p])
	}

	var fid transport.FlowIDGen
	var flows []*transport.Flow
	for i, spec := range specs {
		src, dst, size := spec[0], spec[1], spec[2]
		f := transport.NewFlow(ft.Eng, ft.Hosts[src], ft.Hosts[dst], fid.Next(), i%4,
			int64(size), transport.Config{InitWindow: 16, Obs: podBus[src/hostsPerPod]}, nil)
		f.Sender.StartAt(time.Duration(i) * 4 * time.Microsecond)
		flows = append(flows, f)
	}
	for _, fn := range setup {
		if coord != nil {
			fn(coord, nil)
		} else {
			fn(nil, ft.Eng)
		}
	}
	ft.Run(until)
	res := workloadResult{processed: ft.Processed()}
	for i, f := range flows {
		if !f.Sender.Finished() {
			t.Fatalf("fattree flow #%d did not finish", i)
		}
		res.fcts = append(res.fcts, f.Sender.FCT())
	}
	return res
}

// buildFatTree wires a differential workload's fat-tree through
// NewFatTree on a plain sim.Engine (shards == 0: the reference every
// sharded run is compared against) or through NewFatTreeSharded on a
// coordinator (shards >= 1). The returned coordinator is nil for the
// serial reference; either way the FatTree's Fabric runs it.
func buildFatTree(shards int, cfg topo.FatTreeConfig) (*topo.FatTree, *sim.Coordinator) {
	if shards == 0 {
		return topo.NewFatTree(sim.NewEngine(), cfg), nil
	}
	coord := sim.NewCoordinator()
	ft, _ := topo.NewFatTreeSharded(coord, cfg, shards)
	return ft, coord
}

// fatTreeCrossPodSpecs spreads senders over every pod with cross-pod
// destinations, so traffic exercises the agg<->core cut links on every
// partition.
func fatTreeCrossPodSpecs() [][3]int {
	const hosts, hostsPerPod = 128, 16
	var specs [][3]int
	for i := 0; i < 64; i++ {
		src := (i * 7) % hosts
		dst := (src + hostsPerPod + i*11) % hosts
		if dst/hostsPerPod == src/hostsPerPod {
			dst = (dst + hostsPerPod) % hosts
		}
		specs = append(specs, [3]int{src, dst, 50_000})
	}
	return specs
}

// The k=8 fat-tree differential gate: serial vs the coordinator at 4
// and 8 shards on cross-pod traffic. This is the topology where the
// per-channel clocks grant each shard its own window (distinct shard
// pairs, multi-hop shard graph), so byte-identity here is the
// coordinator's correctness proof on a real fabric.
func TestDifferentialShardedFatTree(t *testing.T) {
	specs := fatTreeCrossPodSpecs()
	const until = 50 * time.Millisecond
	serial := runShardedFatTree(t, 0, specs, until)
	if len(serial.trace) == 0 {
		t.Fatal("empty trace: the workload recorded nothing")
	}
	assertIdenticalRuns(t, "fattree serial-vs-channel@4", serial,
		runShardedFatTree(t, 4, specs, until))
	assertIdenticalRuns(t, "fattree serial-vs-channel@8", serial,
		runShardedFatTree(t, 8, specs, until))
}

// Skewed-load gate: an incast concentrated in pod 0 leaves seven of
// eight shards idle most of the time, so nearly every grant rides on
// null advances through idle shards. Results must still be
// byte-identical to serial.
func TestDifferentialShardedFatTreeIncast(t *testing.T) {
	const hostsPerPod = 16
	var specs [][3]int
	for p := 1; p < 8; p++ { // 4 senders per non-target pod -> host 0
		for j := 0; j < 4; j++ {
			specs = append(specs, [3]int{p*hostsPerPod + j*3, 0, 30_000})
		}
	}
	const until = 50 * time.Millisecond
	serial := runShardedFatTree(t, 0, specs, until)
	if len(serial.trace) == 0 {
		t.Fatal("empty trace: the workload recorded nothing")
	}
	assertIdenticalRuns(t, "incast serial-vs-channel@8", serial,
		runShardedFatTree(t, 8, specs, until))
}

// Spill-merge gate: a sharded fat-tree run whose per-pod buses spill
// tiny rings into binary sinks must reproduce, stream for stream and
// event for event, a serial run that retained everything in memory —
// and the time-ordered merge of the spilled streams must equal the
// merge of the serial streams. This is the tentpole's lossless claim:
// spilling changes where events live, never what was recorded.
func TestDifferentialShardedSpillMerge(t *testing.T) {
	specs := fatTreeCrossPodSpecs()
	const until = 50 * time.Millisecond
	const pods = 8

	// Serial reference: rings big enough to retain the full run.
	ref := make([]*obs.Bus, pods)
	for p := range ref {
		ref[p] = obs.NewTraceBus(1 << 18)
	}
	driveShardedFatTree(t, 0, specs, until, ref)
	refStreams := make([][]obs.Event, pods)
	refRaws := make([][]byte, pods)
	for p, bus := range ref {
		if d := bus.Ring().Dropped(); d != 0 {
			t.Fatalf("serial reference pod %d overflowed its ring (%d dropped); grow the reference ring", p, d)
		}
		refStreams[p] = bus.Ring().Events()
		var buf bytes.Buffer
		if err := obs.WriteBinary(&buf, refStreams[p]); err != nil {
			t.Fatalf("encode reference pod %d: %v", p, err)
		}
		refRaws[p] = buf.Bytes()
	}
	refMerged := mergeTraces(t, refRaws...)
	if len(refMerged) == 0 {
		t.Fatal("empty reference trace: the workload recorded nothing")
	}

	for _, run := range []struct {
		name   string
		shards int
	}{
		{"channel@4", 4},
		{"channel@8", 8},
	} {
		// Spill-backed buses: 256-event rings force hundreds of flushes
		// per pod, so chunk framing is exercised across many batch
		// shapes. Trace-only buses match `pmsbsim -tracefile`.
		buses := make([]*obs.Bus, pods)
		sinks := make([]*bytes.Buffer, pods)
		spills := make([]*obs.SpillWriter, pods)
		for p := range buses {
			sinks[p] = &bytes.Buffer{}
			spills[p] = obs.NewSpillWriter(sinks[p], obs.FormatBinary)
			buses[p] = obs.NewTraceBus(256)
			buses[p].Ring().SetSpill(spills[p])
		}
		driveShardedFatTree(t, run.shards, specs, until, buses)
		raws := make([][]byte, pods)
		for p := range buses {
			if err := buses[p].Ring().FlushSpill(); err != nil {
				t.Fatalf("%s pod %d: flush spill: %v", run.name, p, err)
			}
			if err := spills[p].Close(); err != nil {
				t.Fatalf("%s pod %d: close spill: %v", run.name, p, err)
			}
			if d := buses[p].Ring().Dropped(); d != 0 {
				t.Fatalf("%s pod %d: %d events dropped despite spill", run.name, p, d)
			}
			got, err := obs.ReadBinary(bytes.NewReader(sinks[p].Bytes()))
			if err != nil {
				t.Fatalf("%s pod %d: read spilled trace: %v", run.name, p, err)
			}
			if !reflect.DeepEqual(got, refStreams[p]) {
				t.Errorf("%s pod %d: spilled stream diverges from serial reference (%d vs %d events)",
					run.name, p, len(got), len(refStreams[p]))
			}
			raws[p] = sinks[p].Bytes()
		}
		if merged := mergeTraces(t, raws...); !reflect.DeepEqual(merged, refMerged) {
			t.Errorf("%s: merged spill trace diverges from merged serial trace (%d vs %d events)",
				run.name, len(merged), len(refMerged))
		}
	}
}

// mergeTraces runs obs.MergeTraces over encoded streams and collects
// the merged timeline.
func mergeTraces(t *testing.T, raws ...[]byte) []obs.Event {
	t.Helper()
	rs := make([]io.Reader, len(raws))
	for i, raw := range raws {
		rs[i] = bytes.NewReader(raw)
	}
	var out []obs.Event
	if err := obs.MergeTraces(rs, 0, 1<<63-1, func(ev *obs.Event) error {
		out = append(out, *ev)
		return nil
	}); err != nil {
		t.Fatalf("merge: %v", err)
	}
	return out
}

// Format gate: a real workload's trace survives the round trip through
// the binary codec with every field intact and byte-stable, and the
// JSONL export of the stored trace (what pmsbstat -export prints) is
// one line per event, identical to exporting the live events.
func TestDifferentialTraceFormats(t *testing.T) {
	events := runDumbbellWorkload(t, sim.QueueCalendar).trace
	if len(events) == 0 {
		t.Fatal("empty workload trace")
	}

	var bin bytes.Buffer
	if err := obs.WriteBinary(&bin, events); err != nil {
		t.Fatalf("encode binary: %v", err)
	}
	decoded, err := obs.ReadBinary(bytes.NewReader(bin.Bytes()))
	if err != nil {
		t.Fatalf("decode binary: %v", err)
	}
	if !reflect.DeepEqual(decoded, events) {
		t.Fatalf("binary round trip changed the events (%d vs %d)", len(decoded), len(events))
	}
	var bin2 bytes.Buffer
	if err := obs.WriteBinary(&bin2, decoded); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bin2.Bytes(), bin.Bytes()) {
		t.Error("binary re-encode is not byte-stable")
	}

	export := func(evs []obs.Event) []byte {
		var buf bytes.Buffer
		sw := obs.NewSpillWriter(&buf, obs.FormatJSONL)
		if err := sw.Spill(evs); err != nil {
			t.Fatal(err)
		}
		if err := sw.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	jsonl := export(decoded)
	if !bytes.Equal(jsonl, export(events)) {
		t.Error("JSONL export of binary-decoded events differs from exporting the live events")
	}
	lines := bytes.Split(bytes.TrimSuffix(jsonl, []byte("\n")), []byte("\n"))
	if len(lines) != len(events) {
		t.Fatalf("export has %d lines for %d events", len(lines), len(events))
	}
	for _, i := range []int{0, len(events) - 1} {
		want := fmt.Sprintf(`{"seq":%d,"t":%d,"kind":%q,`, events[i].Seq, int64(events[i].T), events[i].Kind)
		if !bytes.HasPrefix(lines[i], []byte(want)) {
			t.Errorf("export line %d = %s, want prefix %s", i+1, lines[i], want)
		}
	}
}

func TestDifferentialDumbbellWorkload(t *testing.T) {
	heap := runDumbbellWorkload(t, sim.QueueHeap)
	cal := runDumbbellWorkload(t, sim.QueueCalendar)
	if len(heap.trace) == 0 {
		t.Fatal("empty trace: the workload recorded nothing")
	}
	assertIdenticalRuns(t, "dumbbell", heap, cal)
}

func TestDifferentialLeafSpineWorkload(t *testing.T) {
	heap := runLeafSpineWorkload(t, sim.QueueHeap)
	cal := runLeafSpineWorkload(t, sim.QueueCalendar)
	if len(heap.trace) == 0 {
		t.Fatal("empty trace: the workload recorded nothing")
	}
	assertIdenticalRuns(t, "leafspine", heap, cal)
}

// runFatTree32 drives a short-horizon workload on the k=32 (8192-host,
// ~49k-port) arena-built fabric: 64 cross-pod flows, 2 ms horizon. The
// port profile is the memory-lean one the fattree32 experiment and the
// k=32 benchmarks use — slab-carved DWRR, one shared stateless marker —
// so this gate covers the exact construction path the scale target
// ships. Full-length differentials stay at k <= 16; at this size the
// build dominates and a short horizon already fingerprints the event
// order across serial and sharded runs (observability: edge+agg of the
// first and last pod, both pod-local on every partition).
func runFatTree32(t *testing.T, shards int) workloadResult {
	t.Helper()
	const k, pods = 32, 32
	hostsPerPod := (k / 2) * (k / 2) // 256
	nHosts := k * k * k / 4
	cfg := topo.FatTreeConfig{
		K:               k,
		FabricDelaySkew: time.Nanosecond,
		Ports: topo.PortProfile{
			Weights:       topo.EqualWeights(4),
			NewSchedBlock: topo.DWRRBlocks(),
			SharedMarker:  &core.PMSB{PortK: units.Packets(12)},
			BufferBytes:   units.Packets(250),
		},
	}
	ft, _ := buildFatTree(shards, cfg)
	if n := ft.ArenaOverflow(); n != 0 {
		t.Fatalf("k=32 arena overflowed by %d objects: the spec under-reserves", n)
	}

	busA, busB := obs.NewTraceBus(1<<14), obs.NewTraceBus(1<<14)
	half := k / 2
	ft.Edges[0].Observe(busA)
	ft.Aggs[0].Observe(busA)
	ft.Edges[(pods-1)*half].Observe(busB)
	ft.Aggs[(pods-1)*half].Observe(busB)

	var fid transport.FlowIDGen
	var flows []*transport.Flow
	for i := 0; i < 64; i++ {
		src := (i * 7 * hostsPerPod / 4) % nHosts
		dst := (src + hostsPerPod + i*11) % nHosts
		if dst/hostsPerPod == src/hostsPerPod {
			dst = (dst + hostsPerPod) % nHosts
		}
		f := transport.NewFlow(ft.Eng, ft.Hosts[src], ft.Hosts[dst], fid.Next(), i%4,
			30_000, transport.Config{InitWindow: 16}, nil)
		f.Sender.StartAt(time.Duration(i) * 2 * time.Microsecond)
		flows = append(flows, f)
	}
	ft.Run(2 * time.Millisecond)
	res := workloadResult{processed: ft.Processed()}
	for i, f := range flows {
		if !f.Sender.Finished() {
			t.Fatalf("fattree32 flow #%d did not finish inside the horizon", i)
		}
		res.fcts = append(res.fcts, f.Sender.FCT())
	}
	res.trace = busTrace(busA, busB)
	return res
}

// The k=32 short-horizon gate: the arena-built fabric must be
// byte-identical serial vs 8-way pod-sharded (the batched slab handoff
// path), and self-deterministic across two identical sharded runs.
func TestDifferentialFatTree32ShortHorizon(t *testing.T) {
	if testing.Short() {
		t.Skip("k=32 fabric build is too heavy for -short")
	}
	serial := runFatTree32(t, 0)
	if len(serial.trace) == 0 {
		t.Fatal("empty trace: the workload recorded nothing")
	}
	assertIdenticalRuns(t, "fattree32 serial-vs-channel@8", serial,
		runFatTree32(t, 8))
	a := runFatTree32(t, 8)
	assertIdenticalRuns(t, "fattree32 channel-vs-channel@8", a,
		runFatTree32(t, 8))
}
