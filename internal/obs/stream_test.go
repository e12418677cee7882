package obs

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"pmsb/internal/pkt"
	"pmsb/internal/stats"
)

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
	var buf bytes.Buffer
	if err := WriteBinary(&buf, events); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	return buf.Bytes(), events
}

// assertStreamMatches checks a StreamStats against the materializing
// reductions over the same (already range-filtered) events.
func assertStreamMatches(t *testing.T, st *StreamStats, events []Event) {
	t.Helper()
	if st.Events != len(events) {
		t.Fatalf("streamed %d events, materialized %d", st.Events, len(events))
	}
	if want := CountKinds(events); !reflect.DeepEqual(st.Kinds, want) {
		t.Errorf("kind counts differ:\n streamed %v\n want     %v", st.Kinds, want)
	}
	sums, keys := DepthSummaries(events)
	gotKeys := st.DepthKeys()
	if !reflect.DeepEqual(gotKeys, keys) {
		t.Fatalf("depth key sets differ:\n streamed %v\n want     %v", gotKeys, keys)
	}
	for _, k := range keys {
		got, want := st.Depths[k].Samples(), sums[k].Samples()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("queue %v depth samples differ:\n streamed %v\n want     %v", k, got, want)
		}
	}
	if st.Marks != nil {
		ms, dq := MarkSeries(events, st.Marks.BinWidth())
		assertSeriesEqual(t, "marks", st.Marks, ms)
		assertSeriesEqual(t, "dequeues", st.Dequeues, dq)
	}
	if len(events) > 0 {
		minT, maxT := events[0].T, events[0].T
		for _, ev := range events {
			if ev.T < minT {
				minT = ev.T
			}
			if ev.T > maxT {
				maxT = ev.T
			}
		}
		if st.MinT != minT || st.MaxT != maxT {
			t.Errorf("time bounds [%v, %v], want [%v, %v]", st.MinT, st.MaxT, minT, maxT)
		}
	}
	if want := Segments(events); st.Segments != want {
		t.Errorf("segments = %d, want %d", st.Segments, want)
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

// The streaming reduction must reproduce CountKinds, DepthSummaries and
// MarkSeries sample for sample on a multi-chunk trace covering every
// column.
func TestStreamReduceDifferential(t *testing.T) {
	raw, events := streamFixture(t, 3*writerChunkEvents/2)
	st := NewStreamStats(StreamOptions{Counts: true, Depths: true, MarkBin: 100 * time.Microsecond})
	if err := st.Reduce(bytes.NewReader(raw)); err != nil {
		t.Fatalf("Reduce: %v", err)
	}
	assertStreamMatches(t, st, events)
}

// Range cuts must match read-then-filter, including cuts landing
// mid-chunk and cuts selecting nothing.
func TestStreamReduceRange(t *testing.T) {
	raw, events := streamFixture(t, 2000)
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
			st := NewStreamStats(StreamOptions{
				Counts: true, Depths: true, MarkBin: 50 * time.Microsecond,
				Since: cut.since, Until: cut.until,
			})
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
	all := append(append([]Event(nil), ev1...), ev2...)
	if st.Events != len(all) {
		t.Fatalf("streamed %d events, want %d", st.Events, len(all))
	}
	if want := CountKinds(all); !reflect.DeepEqual(st.Kinds, want) {
		t.Errorf("kind counts differ: %v want %v", st.Kinds, want)
	}
	// The second stream restarts virtual time, so concatenation
	// semantics see one extra segment.
	if want := Segments(all); st.Segments != want {
		t.Errorf("segments = %d, want %d", st.Segments, want)
	}
	// Depth summaries are order-insensitive: per-queue sample multisets
	// match the merged timeline's even though the fold order differs.
	sums, keys := DepthSummaries(MergeEvents(ev1, ev2))
	if got := st.DepthKeys(); !reflect.DeepEqual(got, keys) {
		t.Fatalf("depth key sets differ: %v want %v", got, keys)
	}
	for _, k := range keys {
		if st.Depths[k].Count() != sums[k].Count() ||
			st.Depths[k].Mean() != sums[k].Mean() ||
			st.Depths[k].Percentile(99) != sums[k].Percentile(99) {
			t.Errorf("queue %v summary differs from merged-timeline reduction", k)
		}
	}
}

// Disabled reductions leave their maps nil and skip their columns; the
// enabled one is unaffected.
func TestStreamReduceCountsOnly(t *testing.T) {
	raw, events := streamFixture(t, 500)
	st := NewStreamStats(StreamOptions{Counts: true})
	if err := st.Reduce(bytes.NewReader(raw)); err != nil {
		t.Fatalf("Reduce: %v", err)
	}
	if st.Depths != nil {
		t.Error("Depths map allocated without the reduction enabled")
	}
	if st.Marks != nil || st.Dequeues != nil {
		t.Error("mark series allocated without MarkBin set")
	}
	if want := CountKinds(events); !reflect.DeepEqual(st.Kinds, want) {
		t.Errorf("kind counts differ: %v want %v", st.Kinds, want)
	}
	if st.Events != len(events) {
		t.Errorf("streamed %d events, want %d", st.Events, len(events))
	}
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
