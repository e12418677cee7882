package obs

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"pmsb/internal/pkt"
	"pmsb/internal/stats"
)

// The oracle: the reductions StreamStats computes, written as plain
// folds over decoded events. The package reads traces only through the
// streamed pass; these exist so the tests can check it against an
// independent implementation.

func countKinds(events []Event) map[Kind]int {
	out := make(map[Kind]int)
	for i := range events {
		out[events[i].Kind]++
	}
	return out
}

func queueStats(events []Event) map[QueueKey]*QueueStats {
	out := make(map[QueueKey]*QueueStats)
	for i := range events {
		ev := &events[i]
		switch ev.Kind {
		case KindEnqueue, KindDequeue, KindDrop, KindMark:
		default:
			continue
		}
		k := QueueKey{Node: ev.Node, Port: ev.Port, Queue: ev.Queue}
		if out[k] == nil {
			out[k] = &QueueStats{}
		}
		q := out[k]
		switch ev.Kind {
		case KindEnqueue:
			q.Add(float64(ev.QueueBytes))
		case KindDequeue:
			q.Add(float64(ev.QueueBytes))
			q.TxPackets++
			q.TxBytes += ev.Size
		case KindDrop:
			q.Drops++
		case KindMark:
			q.Marks++
		}
	}
	return out
}

// assertQueueEqual compares one queue's streamed reduction with the
// oracle's: the tallies, and the depth samples in fold order.
func assertQueueEqual(t *testing.T, k QueueKey, got, want *QueueStats) {
	t.Helper()
	if got.TxPackets != want.TxPackets || got.TxBytes != want.TxBytes ||
		got.Marks != want.Marks || got.Drops != want.Drops {
		t.Errorf("queue %v tallies (tx %d pkts %d B, marks %d, drops %d), want (tx %d pkts %d B, marks %d, drops %d)",
			k, got.TxPackets, got.TxBytes, got.Marks, got.Drops,
			want.TxPackets, want.TxBytes, want.Marks, want.Drops)
	}
	if !reflect.DeepEqual(got.Samples(), want.Samples()) {
		t.Errorf("queue %v depth samples differ:\n streamed %v\n want     %v", k, got.Samples(), want.Samples())
	}
}

func markSeries(events []Event, bin time.Duration) (marks, dequeues *stats.TimeSeries) {
	marks, dequeues = stats.NewTimeSeries(bin), stats.NewTimeSeries(bin)
	for i := range events {
		switch events[i].Kind {
		case KindMark:
			marks.Add(events[i].T, 1)
		case KindDequeue:
			dequeues.Add(events[i].T, 1)
		}
	}
	return marks, dequeues
}

func segments(events []Event) int {
	if len(events) == 0 {
		return 0
	}
	segs := 1
	for i := 1; i < len(events); i++ {
		if events[i].T < events[i-1].T {
			segs++
		}
	}
	return segs
}

func flowsFromEvents(events []Event) FlowTable {
	t := make(FlowTable)
	rec := func(f pkt.FlowID) *FlowRecord {
		if t[f] == nil {
			t[f] = &FlowRecord{Flow: f}
		}
		return t[f]
	}
	for _, ev := range events {
		if ev.Flow == 0 {
			continue
		}
		switch ev.Kind {
		case KindFlowStart:
			r := rec(ev.Flow)
			r.Start, r.Size, r.Service = ev.T, ev.Size, int(ev.Queue)
		case KindFlowFinish:
			r := rec(ev.Flow)
			r.Finished, r.Finish, r.FCT, r.Bytes = true, ev.T, time.Duration(ev.V), ev.Size
		case KindMark:
			rec(ev.Flow).MarksSeen++
		case KindCwndCut:
			rec(ev.Flow).CwndCuts++
		case KindRetransmit:
			rec(ev.Flow).Retransmits++
		case KindRTO:
			rec(ev.Flow).RTOs++
		case KindAlpha:
			r := rec(ev.Flow)
			r.LastAlpha = ev.V
			r.Bytes = max(r.Bytes, ev.Size)
		}
	}
	return t
}

// mergeTraces collects MergeTraces' output over encoded streams.
func mergeTraces(t *testing.T, since, until time.Duration, raws ...[]byte) []Event {
	t.Helper()
	rs := make([]io.Reader, len(raws))
	for i, raw := range raws {
		rs[i] = bytes.NewReader(raw)
	}
	var out []Event
	if err := MergeTraces(rs, since, until, func(ev *Event) error {
		out = append(out, *ev)
		return nil
	}); err != nil {
		t.Fatalf("MergeTraces: %v", err)
	}
	return out
}

// encode writes events in the binary trace format.
func encode(t testing.TB, events []Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, events); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	return buf.Bytes()
}

// streamFixture synthesizes a deterministic pseudo-random trace wide
// enough to exercise every column (all kinds, all optional fields,
// zero-valued fields with clear bits) across several chunk boundaries,
// and returns both its binary encoding and the events themselves.
func streamFixture(t *testing.T, n int) ([]byte, []Event) {
	t.Helper()
	r := rand.New(rand.NewSource(42))
	events := make([]Event, n)
	tm := time.Duration(0)
	for i := range events {
		tm += time.Duration(r.Intn(2000)) * time.Nanosecond
		ev := Event{
			Seq:  uint64(i),
			T:    tm,
			Kind: Kind(1 + r.Intn(int(numKinds)-1)),
		}
		switch r.Intn(4) {
		case 0: // fully-populated port event shape
			ev.Node = pkt.NodeID(1000 + r.Intn(4))
			ev.Port = int32(r.Intn(3))
			ev.Queue = int32(r.Intn(8))
			ev.Flow = pkt.FlowID(1 + r.Intn(16))
			ev.Pkt = uint64(r.Intn(1 << 20))
			ev.Size = 1500
			ev.PortBytes = int64(1500 * r.Intn(64))
			ev.QueueBytes = int64(1500 * r.Intn(16))
			ev.V = r.Float64()
		case 1: // depth sample with zero occupancy (clear qb bit)
			ev.Kind = KindDequeue
			ev.Node = pkt.NodeID(1000 + r.Intn(4))
			ev.Queue = int32(r.Intn(8))
		case 2: // flow event shape
			ev.Flow = pkt.FlowID(1 + r.Intn(16))
			ev.Size = int64(r.Intn(1 << 24))
			ev.V = float64(r.Intn(1000)) / 16
		case 3: // drop shape
			ev.Reason = DropReason(1 + r.Intn(2))
			ev.Size = 1500
		}
		events[i] = ev
	}
	return encode(t, events), events
}

// assertStreamMatches checks a StreamStats against the oracle over the
// same (already range-filtered) events, one slice per reduced file.
// Every reduction st was built with is compared.
func assertStreamMatches(t *testing.T, st *StreamStats, files ...[]Event) {
	t.Helper()
	var events []Event
	wantSegs := 0
	for _, f := range files {
		events = append(events, f...)
		wantSegs = max(wantSegs, segments(f))
	}
	if st.Events != len(events) {
		t.Fatalf("streamed %d events, oracle %d", st.Events, len(events))
	}
	if st.Kinds != nil && !reflect.DeepEqual(st.Kinds, countKinds(events)) {
		t.Errorf("kind counts differ:\n streamed %v\n want     %v", st.Kinds, countKinds(events))
	}
	if st.Depths != nil {
		queues := queueStats(events)
		keys := make([]QueueKey, 0, len(queues))
		for k := range queues {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			a, b := keys[i], keys[j]
			return a.Node < b.Node || a.Node == b.Node && (a.Port < b.Port || a.Port == b.Port && a.Queue < b.Queue)
		})
		if got := st.DepthKeys(); !reflect.DeepEqual(got, keys) {
			t.Fatalf("queue key sets differ:\n streamed %v\n want     %v", got, keys)
		}
		for _, k := range keys {
			assertQueueEqual(t, k, st.Depths[k], queues[k])
		}
	}
	if st.Marks != nil {
		ms, dq := markSeries(events, st.Marks.BinWidth())
		assertSeriesEqual(t, "marks", st.Marks, ms)
		assertSeriesEqual(t, "dequeues", st.Dequeues, dq)
	}
	if st.Flows != nil {
		assertFlowsEqual(t, st.Flows, flowsFromEvents(events))
	}
	if len(events) > 0 {
		minT, maxT := events[0].T, events[0].T
		for _, ev := range events {
			minT, maxT = min(minT, ev.T), max(maxT, ev.T)
		}
		if st.MinT != minT || st.MaxT != maxT {
			t.Errorf("time bounds [%v, %v], want [%v, %v]", st.MinT, st.MaxT, minT, maxT)
		}
	}
	if st.Segments != wantSegs {
		t.Errorf("segments = %d, want %d", st.Segments, wantSegs)
	}
}

// assertFlowsEqual compares two flow tables record by record. Records
// compare in their printed form so a NaN alpha (possible in arbitrary
// input) equals itself.
func assertFlowsEqual(t *testing.T, got, want FlowTable) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("flow table holds %d flows, want %d", len(got), len(want))
	}
	for f, w := range want {
		g := got[f]
		if g == nil || fmt.Sprintf("%+v", *g) != fmt.Sprintf("%+v", *w) {
			t.Errorf("flow %d:\n streamed %+v\n want     %+v", f, g, w)
		}
	}
}

// assertSeriesEqual compares two binned time series value by value.
func assertSeriesEqual(t *testing.T, name string, got, want *stats.TimeSeries) {
	t.Helper()
	if got.Bins() != want.Bins() {
		t.Errorf("%s series has %d bins, want %d", name, got.Bins(), want.Bins())
		return
	}
	for i := 0; i < want.Bins(); i++ {
		if got.Value(i) != want.Value(i) {
			t.Errorf("%s bin %d = %v, want %v", name, i, got.Value(i), want.Value(i))
		}
	}
}

// allReductions enables every reduction StreamStats offers.
var allReductions = StreamOptions{Counts: true, Depths: true, MarkBin: 100 * time.Microsecond, Flows: true}

// The streaming reduction must reproduce the oracle sample for sample on
// a multi-chunk trace covering every column.
func TestStreamReduceDifferential(t *testing.T) {
	raw, events := streamFixture(t, 3*writerChunkEvents/2)
	st := NewStreamStats(allReductions)
	if err := st.Reduce(bytes.NewReader(raw)); err != nil {
		t.Fatalf("Reduce: %v", err)
	}
	assertStreamMatches(t, st, events)
}

// Range cuts must match read-then-filter, including cuts landing
// mid-chunk, cuts skipping whole chunks, and cuts selecting nothing.
func TestStreamReduceRange(t *testing.T) {
	raw, events := streamFixture(t, 3*writerChunkEvents)
	last := events[len(events)-1].T
	cuts := []struct {
		name         string
		since, until time.Duration
	}{
		{"all", 0, last},
		{"prefix", 0, last / 3},
		{"suffix", last / 2, last},
		{"interior", last / 4, last / 2},
		{"empty", last + time.Second, last + 2*time.Second},
	}
	for _, cut := range cuts {
		t.Run(cut.name, func(t *testing.T) {
			opt := allReductions
			opt.MarkBin, opt.Since, opt.Until = 50*time.Microsecond, cut.since, cut.until
			st := NewStreamStats(opt)
			if err := st.Reduce(bytes.NewReader(raw)); err != nil {
				t.Fatalf("Reduce: %v", err)
			}
			assertStreamMatches(t, st, filterEvents(events, cut.since, cut.until))
		})
	}
}

// Several Reduce calls accumulate like analyzing the concatenated
// streams; the order-insensitive reductions also equal the merged
// timeline's.
func TestStreamReduceMultiFile(t *testing.T) {
	raw1, ev1 := streamFixture(t, 700)
	raw2, ev2 := streamFixture(t, 300)
	st := NewStreamStats(StreamOptions{Counts: true, Depths: true})
	for _, raw := range [][]byte{raw1, raw2} {
		if err := st.Reduce(bytes.NewReader(raw)); err != nil {
			t.Fatalf("Reduce: %v", err)
		}
	}
	// Runs are counted per stream: the second file starting over at
	// time zero is not a new run.
	assertStreamMatches(t, st, ev1, ev2)
	// The per-queue reduction is order-insensitive: tallies and depth
	// sample multisets match the merged timeline's even though the fold
	// order differs.
	queues := queueStats(mergeTraces(t, 0, 1<<63-1, raw1, raw2))
	if len(st.Depths) != len(queues) {
		t.Fatalf("queue key sets differ: %d vs %d queues", len(st.Depths), len(queues))
	}
	for k, want := range queues {
		got := st.Depths[k]
		if got == nil || got.Count() != want.Count() || got.Mean() != want.Mean() ||
			got.Percentile(99) != want.Percentile(99) ||
			got.TxPackets != want.TxPackets || got.TxBytes != want.TxBytes ||
			got.Marks != want.Marks || got.Drops != want.Drops {
			t.Errorf("queue %v reduction differs from the merged timeline's", k)
		}
	}
}

// Disabled reductions leave their aggregates nil and skip their
// columns; the enabled one is unaffected.
func TestStreamReduceCountsOnly(t *testing.T) {
	raw, events := streamFixture(t, 500)
	st := NewStreamStats(StreamOptions{Counts: true})
	if err := st.Reduce(bytes.NewReader(raw)); err != nil {
		t.Fatalf("Reduce: %v", err)
	}
	if st.Depths != nil || st.Flows != nil {
		t.Error("Depths or Flows allocated without the reduction enabled")
	}
	if st.Marks != nil || st.Dequeues != nil {
		t.Error("mark series allocated without MarkBin set")
	}
	assertStreamMatches(t, st, events)
}

// A truncated chunk must error, not silently under-count.
func TestStreamReduceTruncated(t *testing.T) {
	raw, _ := streamFixture(t, 200)
	st := NewStreamStats(StreamOptions{Counts: true, Depths: true})
	if err := st.Reduce(bytes.NewReader(raw[:len(raw)/2])); err == nil {
		t.Fatal("truncated stream did not error")
	}
	if err := st.Reduce(bytes.NewReader([]byte("not a trace"))); err == nil {
		t.Fatal("garbage stream did not error")
	}
}

// traceSeeds is the shared seed corpus of the decoder fuzzers: valid
// traces of increasing complexity plus targeted corruptions, so the
// fuzzer starts at the format's interesting surfaces rather than
// rediscovering the magic.
func traceSeeds() [][]byte {
	var empty, one, full bytes.Buffer
	_ = WriteBinary(&empty, nil)
	_ = WriteBinary(&one, []Event{{Seq: 0, T: 1, Kind: KindEnqueue, Node: 1, Size: 1500}})
	_ = WriteBinary(&full, traceFixture())
	return [][]byte{
		empty.Bytes(),
		one.Bytes(),
		full.Bytes(),
		full.Bytes()[:full.Len()-3],
		[]byte("PMSBTRC0"),
		append([]byte(binaryMagic), 0xFF, 0xFF, 0xFF, 0xFF, 0xFF),
		append([]byte(binaryMagic), 0x01, 0x00, 0x00, 0xEE),
	}
}

// FuzzStreamReduce: the streamed pass is the only report decoder, so it
// must agree with the full decoder on arbitrary input — with every
// reduction on, Reduce fails exactly when ReadBinary fails, and when
// both succeed its aggregates equal the oracle's over the decoded
// events. The window starts at 0 and ends at 2^40 ns, as pmsbstat's
// default window starts at 0, and keeps the mark timeline's bin count
// bounded on hostile timestamps.
func FuzzStreamReduce(f *testing.F) {
	for _, seed := range traceSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := ReadBinary(bytes.NewReader(data))
		opt := allReductions
		opt.MarkBin, opt.Until = 1<<24, 1<<40
		st := NewStreamStats(opt)
		serr := st.Reduce(bytes.NewReader(data))
		if (err == nil) != (serr == nil) {
			t.Fatalf("ReadBinary err = %v, Reduce err = %v", err, serr)
		}
		if err != nil {
			return
		}
		assertStreamMatches(t, st, filterEvents(events, opt.Since, opt.Until))
	})
}
