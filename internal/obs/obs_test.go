package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"pmsb/internal/pkt"
)

func testPacket(flow pkt.FlowID, id uint64, size int) *pkt.Packet {
	return &pkt.Packet{Flow: flow, ID: id, Size: size}
}

func TestRingAppendAndOrder(t *testing.T) {
	r := NewRing(8)
	for i := 0; i < 5; i++ {
		*r.nextSlot() = Event{Seq: uint64(i)}
	}
	if r.n != 5 || r.Total() != 5 || r.Dropped() != 0 {
		t.Fatalf("len=%d total=%d dropped=%d", r.n, r.Total(), r.Dropped())
	}
	evs := r.Events()
	for i, ev := range evs {
		if ev.Seq != uint64(i) {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
	}
}

// TestRingWraparound: overflowing the ring keeps the newest events in
// oldest-first order and counts the overwritten prefix as dropped.
func TestRingWraparound(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 10; i++ {
		*r.nextSlot() = Event{Seq: uint64(i)}
	}
	if r.n != 4 {
		t.Fatalf("Len = %d, want 4", r.n)
	}
	if r.Total() != 10 {
		t.Fatalf("Total = %d, want 10", r.Total())
	}
	if r.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", r.Dropped())
	}
	want := uint64(6)
	r.Do(func(ev *Event) {
		if ev.Seq != want {
			t.Fatalf("got seq %d, want %d", ev.Seq, want)
		}
		want++
	})
	if want != 10 {
		t.Fatalf("Do visited up to %d, want 10", want)
	}
}

func TestRingMinimumCapacity(t *testing.T) {
	r := NewRing(0)
	if len(r.buf) != 1 {
		t.Fatalf("Cap = %d, want 1", len(r.buf))
	}
	*r.nextSlot() = Event{Seq: 1}
	*r.nextSlot() = Event{Seq: 2}
	if r.n != 1 || r.Events()[0].Seq != 2 {
		t.Fatalf("single-slot ring must keep the newest event: %+v", r.Events())
	}
}

// encodeJSONL runs events through the JSONL encoder (the one pmsbstat
// -export uses).
func encodeJSONL(t *testing.T, events []Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	sw := NewSpillWriter(&buf, FormatJSONL)
	if err := sw.Spill(events); err != nil {
		t.Fatalf("Spill: %v", err)
	}
	if err := sw.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return buf.Bytes()
}

// decodeJSONL parses exported lines back into events so tests can
// compare them. The package itself never reads JSONL; kinds arrive by
// name and are mapped back through Kinds().
func decodeJSONL(t *testing.T, raw []byte) []Event {
	t.Helper()
	byName := make(map[string]Kind)
	for _, k := range Kinds() {
		byName[k.String()] = k
	}
	var out []Event
	for i, line := range bytes.Split(bytes.TrimSuffix(raw, []byte("\n")), []byte("\n")) {
		var rec struct {
			Event
			Kind string `json:"kind"` // shadows Event.Kind, which has no decoder
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("line %d: %v", i+1, err)
		}
		k, ok := byName[rec.Kind]
		if !ok {
			t.Fatalf("line %d: kind %q is not a kind name", i+1, rec.Kind)
		}
		rec.Event.Kind = k
		out = append(out, rec.Event)
	}
	return out
}

// TestJSONLRoundTrip: one line per event, and every field written must
// survive a decode of the export, including the string-form kinds.
func TestJSONLRoundTrip(t *testing.T) {
	in := []Event{
		{Seq: 0, T: time.Millisecond, Kind: KindEnqueue, Node: 1000, Port: 0,
			Queue: 1, Flow: 7, Pkt: 42, Size: 1500, PortBytes: 4500, QueueBytes: 3000},
		{Seq: 1, T: 2 * time.Millisecond, Kind: KindDrop, Node: 1000, Port: 0,
			Queue: 0, Flow: 8, Pkt: 43, Size: 1500, Reason: DropPortBuffer},
		{Seq: 2, T: 3 * time.Millisecond, Kind: KindBlind, Node: pkt.NoNode, Port: -1,
			Queue: 1, PortBytes: 20000, QueueBytes: 100, V: 9000},
		{Seq: 3, T: 4 * time.Millisecond, Kind: KindFlowFinish, Node: pkt.NoNode,
			Port: -1, Queue: -1, Flow: 7, Size: 9000, V: 4e6},
	}
	raw := encodeJSONL(t, in)
	if got := bytes.Count(raw, []byte("\n")); got != len(in) {
		t.Fatalf("wrote %d lines, want %d", got, len(in))
	}
	if !bytes.Contains(raw, []byte(`"kind":"blind"`)) {
		t.Fatalf("kinds not exported by name:\n%s", raw)
	}
	out := decodeJSONL(t, raw)
	if len(out) != len(in) {
		t.Fatalf("read %d events, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("event %d round-trip mismatch:\n in: %+v\nout: %+v", i, in[i], out[i])
		}
	}
}

// TestNilBusIsInert: every probe constructor returns nil on a nil bus
// and every emit method tolerates a nil receiver — the disabled layer.
func TestNilBusIsInert(t *testing.T) {
	var b *Bus
	if b.Ring() != nil {
		t.Fatal("nil bus ring must be nil")
	}
	pp := b.ObservePort(PortID{Node: 1, Port: 0}, 2)
	if pp != nil {
		t.Fatal("ObservePort on nil bus must be nil")
	}
	p := testPacket(1, 1, 1500)
	pp.Enqueue(0, 0, p, 0, 0)
	pp.Dequeue(0, 0, p, 0, 0)
	pp.Drop(0, 0, p, DropPortBuffer)
	pp.Mark(0, 0, p, 0, 0)
	fp := b.OpenFlow(0, 1, 0, 0)
	if fp != nil {
		t.Fatal("OpenFlow on nil bus must be nil")
	}
	fp.CwndCut(0, 1)
	fp.Alpha(0, 0.5, 100)
	fp.Retransmit(0, 0)
	fp.RTO(0)
	fp.Rate(0, 1e9)
	fp.Finish(0, time.Millisecond, 100)
	b.PFCPause(0, 1, 100)
	b.PFCResume(0, 1, 10)
	b.Blind(0, 1, 100, 10, 50)
}

// TestBusEmitZeroAlloc: with the layer ENABLED, a port-probe emit must still be allocation-free — the hot-path
// guarantee that makes always-on tracing viable.
func TestBusEmitZeroAlloc(t *testing.T) {
	bus := NewTraceBus(1 << 12)
	probe := bus.ObservePort(PortID{Node: 1000, Port: 0}, 2)
	p := testPacket(7, 1, 1500)
	allocs := testing.AllocsPerRun(1000, func() {
		probe.Enqueue(time.Millisecond, 1, p, 4500, 3000)
		probe.Dequeue(time.Millisecond, 1, p, 3000, 1500)
		probe.Mark(time.Millisecond, 1, p, 4500, 3000)
	})
	if allocs != 0 {
		t.Fatalf("enabled emit path allocates %v/op, want 0", allocs)
	}
	// Flow-probe congestion events ride the same ring.
	fp := bus.OpenFlow(0, 7, 0, 0)
	allocs = testing.AllocsPerRun(1000, func() {
		fp.CwndCut(time.Millisecond, 10)
		fp.Alpha(time.Millisecond, 0.5, 1000)
	})
	if allocs != 0 {
		t.Fatalf("flow emit path allocates %v/op, want 0", allocs)
	}
}

func TestBusSequencing(t *testing.T) {
	bus := NewTraceBus(8)
	probe := bus.ObservePort(PortID{Node: 1, Port: 0}, 1)
	p := testPacket(1, 1, 100)
	probe.Enqueue(0, 0, p, 100, 100)
	probe.Dequeue(time.Microsecond, 0, p, 0, 0)
	evs := bus.Ring().Events()
	if len(evs) != 2 || evs[0].Seq != 0 || evs[1].Seq != 1 {
		t.Fatalf("sequencing wrong: %+v", evs)
	}
}

// A bus always has a ring: a capacity that would leave it without one
// is a programming error.
func TestTraceBusNeedsRing(t *testing.T) {
	for _, c := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewTraceBus(%d) did not panic", c)
				}
			}()
			NewTraceBus(c)
		}()
	}
}

// reduceRing encodes a bus's recorded events and reduces them with
// every reduction on.
func reduceRing(t *testing.T, bus *Bus) *StreamStats {
	t.Helper()
	st := NewStreamStats(StreamOptions{Counts: true, Depths: true, MarkBin: time.Millisecond, Flows: true})
	if err := st.Reduce(bytes.NewReader(encode(t, bus.Ring().Events()))); err != nil {
		t.Fatalf("Reduce: %v", err)
	}
	return st
}

// TestFlowTableTopBytes: flow probes' events rebuild per-flow records
// from the trace, ranked by bytes with a flow-ID tiebreak.
func TestFlowTableTopBytes(t *testing.T) {
	bus := NewTraceBus(64)
	a := bus.OpenFlow(0, 1, 0, 0)
	b := bus.OpenFlow(0, 2, 1, 0)
	c := bus.OpenFlow(0, 3, 1, 0)
	a.Alpha(0, 0.1, 500)
	b.Alpha(0, 0.1, 900)
	c.Alpha(0, 0.1, 900)
	flows := reduceRing(t, bus).Flows
	top := flows.TopBytes(2)
	if len(top) != 2 || top[0].Flow != 2 || top[1].Flow != 3 {
		t.Fatalf("TopBytes order wrong: %+v", top)
	}
	if len(flows) != 3 || flows[1].Bytes != 500 || flows[3].Service != 1 {
		t.Fatal("flow table state wrong")
	}
	if all := flows.TopBytes(-1); len(all) != 3 || all[2].Flow != 1 {
		t.Fatalf("TopBytes(-1) = %+v, want all three flows", all)
	}
	b.Finish(time.Millisecond, time.Millisecond, 1200)
	rec := reduceRing(t, bus).Flows[2]
	if !rec.Finished || rec.FCT != time.Millisecond || rec.Bytes != 1200 {
		t.Fatalf("finish not recorded: %+v", rec)
	}
}

// TestAnalysis drives the trace reductions over a synthetic two-queue
// trace with a known shape.
func TestAnalysis(t *testing.T) {
	bus := NewTraceBus(1 << 10)
	probe := bus.ObservePort(PortID{Node: 1000, Port: 0}, 2)
	p0 := testPacket(1, 1, 1500)
	p1 := testPacket(2, 2, 1500)
	fp := bus.OpenFlow(0, 1, 0, 3000)
	for i := 0; i < 4; i++ {
		at := time.Duration(i) * time.Millisecond
		probe.Enqueue(at, 0, p0, 3000, 2000)
		probe.Enqueue(at, 1, p1, 3000, 1000)
		probe.Dequeue(at+time.Millisecond/2, 0, p0, 1500, 500)
	}
	probe.Mark(4*time.Millisecond, 0, p0, 3000, 2000)
	probe.Drop(4*time.Millisecond, 1, p1, DropPortBuffer)
	fp.Finish(5*time.Millisecond, 5*time.Millisecond, 3000)
	st := reduceRing(t, bus)

	if keys := st.DepthKeys(); len(keys) != 2 {
		t.Fatalf("keys = %v", keys)
	}
	q0 := st.Depths[QueueKey{Node: 1000, Port: 0, Queue: 0}]
	if q0.Count() != 8 || q0.Max() != 2000 || q0.Percentile(0) != 500 {
		t.Fatalf("q0 depth count=%d max=%v min=%v", q0.Count(), q0.Max(), q0.Percentile(0))
	}
	if q0.TxPackets != 4 || q0.TxBytes != 6000 || q0.Marks != 1 || q0.Drops != 0 {
		t.Fatalf("q0 tallies: %+v", *q0)
	}
	if q1 := st.Depths[QueueKey{Node: 1000, Port: 0, Queue: 1}]; q1.Count() != 4 || q1.TxPackets != 0 || q1.Drops != 1 {
		t.Fatalf("q1: %d depth samples, %d tx, %d drops", q1.Count(), q1.TxPackets, q1.Drops)
	}
	if st.Marks.Value(4) != 1 || st.Dequeues.Value(0) != 1 {
		t.Fatalf("mark series: marks(4)=%v deqs(0)=%v", st.Marks.Value(4), st.Dequeues.Value(0))
	}
	if got := st.Kinds[KindEnqueue]; got != 8 {
		t.Fatalf("enqueue count = %d", got)
	}
	if st.Segments != 1 || st.MinT != 0 || st.MaxT != 5*time.Millisecond {
		t.Fatalf("segments = %d, span [%v, %v]", st.Segments, st.MinT, st.MaxT)
	}

	// Flow 1 has lifecycle events; flow 2 appears solely in enqueue
	// records, which don't open flow records. The switch-side mark of
	// flow 1's packet counts as a mark it saw.
	if len(st.Flows) != 1 {
		t.Fatalf("flows = %d", len(st.Flows))
	}
	f1 := st.Flows[1]
	if f1 == nil || !f1.Finished || f1.FCT != 5*time.Millisecond || f1.MarksSeen != 1 || f1.Size != 3000 {
		t.Fatalf("reconstructed flow 1: %+v", f1)
	}
}

// TestSegmentsDetectsRestart: every time virtual time goes backwards a
// new run (segment) begins.
func TestSegmentsDetectsRestart(t *testing.T) {
	events := []Event{
		{T: time.Millisecond, Kind: KindRTO}, {T: 2 * time.Millisecond, Kind: KindRTO},
		{T: time.Microsecond, Kind: KindRTO}, // engine restart
		{T: 5 * time.Millisecond, Kind: KindRTO},
	}
	st := NewStreamStats(StreamOptions{})
	if err := st.Reduce(bytes.NewReader(encode(t, events))); err != nil {
		t.Fatal(err)
	}
	if st.Segments != 2 {
		t.Fatalf("Segments = %d, want 2", st.Segments)
	}
	if err := st.Reduce(bytes.NewReader(encode(t, nil))); err != nil || st.Segments != 2 {
		t.Fatalf("an empty trace adds no segment: %d, %v", st.Segments, err)
	}
	if NewStreamStats(StreamOptions{}).Segments != 0 {
		t.Fatal("empty trace has 0 segments")
	}
}

// TestSegmentsCountedPerStream: the per-shard files of one multi-run
// experiment each hold every run, so their report counts the runs once,
// not once per file plus one per file boundary.
func TestSegmentsCountedPerStream(t *testing.T) {
	twoRuns := []Event{
		{T: time.Millisecond, Kind: KindRTO}, {T: 2 * time.Millisecond, Kind: KindRTO},
		{T: time.Microsecond, Kind: KindRTO},
	}
	st := NewStreamStats(StreamOptions{})
	for shard := 0; shard < 2; shard++ {
		if err := st.Reduce(bytes.NewReader(encode(t, twoRuns))); err != nil {
			t.Fatal(err)
		}
	}
	if st.Segments != 2 {
		t.Fatalf("Segments = %d over two two-run shard files, want 2", st.Segments)
	}
}

func TestKindStringAndKinds(t *testing.T) {
	ks := Kinds()
	if len(ks) != int(numKinds)-1 {
		t.Fatalf("Kinds() returned %d kinds, want %d", len(ks), int(numKinds)-1)
	}
	seen := map[string]bool{}
	for _, k := range ks {
		name := k.String()
		if strings.HasPrefix(name, "kind(") {
			t.Fatalf("kind %d has no name", k)
		}
		if seen[name] {
			t.Fatalf("duplicate kind name %q", name)
		}
		seen[name] = true
	}
	if Kind(200).String() != "kind(200)" {
		t.Fatal("unknown kind must render numerically")
	}
	if DropPortBuffer.String() == "" || DropReason(99).String() == "" {
		t.Fatal("drop reasons must always render")
	}
}
