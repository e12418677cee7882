package obs

import (
	"bytes"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"pmsb/internal/pkt"
)

// traceFixture is a representative event mix: every kind, negative
// identity fields (NoNode/-1), zero-heavy flow events, float payloads,
// and non-monotonic inter-bus timestamps do not appear (a single bus is
// time-ordered) but large T gaps do.
func traceFixture() []Event {
	return []Event{
		{Seq: 0, T: 0, Kind: KindFlowStart, Node: pkt.NoNode, Port: -1, Queue: -1,
			Flow: 7, Size: 1 << 20},
		{Seq: 1, T: 1500 * time.Nanosecond, Kind: KindEnqueue, Node: 3, Port: 2,
			Queue: 1, Flow: 7, Pkt: 42, Size: 1500, PortBytes: 3000, QueueBytes: 1500},
		{Seq: 2, T: 1500 * time.Nanosecond, Kind: KindMark, Node: 3, Port: 2,
			Queue: 1, Pkt: 42, PortBytes: 3000, QueueBytes: 1500},
		{Seq: 3, T: 2 * time.Microsecond, Kind: KindBlind, Node: pkt.NoNode, Port: -1,
			Queue: 5, PortBytes: 90000, QueueBytes: 200, V: 512.5},
		{Seq: 4, T: 2 * time.Microsecond, Kind: KindDrop, Node: 9, Port: 0,
			Queue: 3, Pkt: 43, Size: 9000, Reason: DropPortBuffer},
		{Seq: 5, T: 3 * time.Millisecond, Kind: KindPFCPause, Node: 4, Port: -1,
			Queue: -1, PortBytes: 65536},
		{Seq: 6, T: 3*time.Millisecond + 1, Kind: KindCwndCut, Node: pkt.NoNode,
			Port: -1, Queue: -1, Flow: 7, V: 8},
		{Seq: 7, T: time.Second, Kind: KindFlowFinish, Node: pkt.NoNode, Port: -1,
			Queue: -1, Flow: 7, V: 1.0004e9},
	}
}

func TestBinaryTraceRoundTrip(t *testing.T) {
	want := traceFixture()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, want); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	// The issue's size target: ~32-48 B/record ceiling; the columnar
	// codec should land well under it on a representative mix.
	if perEv := buf.Len() / len(want); perEv > 48 {
		t.Errorf("binary encoding %d B/event, want <= 48", perEv)
	}
	got, err := ReadBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

// TestBinaryTraceJSONLDifferential is the codec-level differential
// behind pmsbstat -export: events stored in the binary format and read
// back export to exactly the JSONL the live events would have.
func TestBinaryTraceJSONLDifferential(t *testing.T) {
	events := traceFixture()
	var bin bytes.Buffer
	if err := WriteBinary(&bin, events); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	fromBin, err := ReadBinary(&bin)
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	direct, exported := encodeJSONL(t, events), encodeJSONL(t, fromBin)
	if !bytes.Equal(direct, exported) {
		t.Errorf("binary->jsonl export not byte-identical to direct JSONL encoding:\n%s\nvs\n%s", exported, direct)
	}
	if got := decodeJSONL(t, exported); !reflect.DeepEqual(got, events) {
		t.Fatalf("exported lines decode to different events:\n got %+v\nwant %+v", got, events)
	}
}

// TestBinaryTraceZeroFields: an event whose optional fields are all
// zero encodes an empty bitmap (its whole record is the four mandatory
// columns — delta, delta, kind, bitmap — at one byte each) and decodes
// back to the zero values.
func TestBinaryTraceZeroFields(t *testing.T) {
	want := []Event{{Seq: 0, T: 0, Kind: KindRTO}}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, want); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	if wantLen := len(binaryMagic) + 1 + 4; buf.Len() != wantLen {
		t.Errorf("zero-field record = %d bytes, want %d (magic + count + 4 one-byte columns)",
			buf.Len(), wantLen)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %+v, want %+v", got, want)
	}
}

// TestBinaryTraceMaxDeltas: extreme Seq/T jumps (up to the full 64-bit
// range, including backwards T between merged streams) survive the
// delta coding via two's-complement wraparound.
func TestBinaryTraceMaxDeltas(t *testing.T) {
	want := []Event{
		{Seq: 0, T: math.MaxInt64, Kind: KindEnqueue},
		{Seq: math.MaxUint64, T: math.MinInt64, Kind: KindDequeue},
		{Seq: 1, T: 0, Kind: KindRate, V: math.MaxFloat64},
		{Seq: 2, T: -1, Kind: KindAlpha, V: math.SmallestNonzeroFloat64,
			Size: math.MinInt64, PortBytes: math.MaxInt64, QueueBytes: math.MinInt64,
			Flow: math.MaxUint64, Pkt: math.MaxUint64},
		{Seq: 3, T: 1, Kind: KindRetransmit, Node: math.MinInt32, Port: math.MaxInt32,
			Queue: math.MinInt32},
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, want); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %+v,\nwant %+v", got, want)
	}
}

// TestBinaryTraceChunkBoundaries: streams spanning several writer
// chunks keep the running deltas intact, including when fed through
// multiple Write calls of awkward sizes.
func TestBinaryTraceChunkBoundaries(t *testing.T) {
	const n = writerChunkEvents*2 + 37
	want := make([]Event, n)
	for i := range want {
		want[i] = Event{Seq: uint64(i), T: time.Duration(i) * 17,
			Kind: Kind(1 + i%(int(numKinds)-1)), Node: pkt.NodeID(i % 5), Port: int32(i % 3)}
	}
	var buf bytes.Buffer
	bw := NewBinaryWriter(&buf)
	// Deliberately misaligned batches.
	for off := 0; off < n; {
		end := off + writerChunkEvents - 13
		if end > n {
			end = n
		}
		if err := bw.Write(want[off:end]); err != nil {
			t.Fatalf("Write: %v", err)
		}
		off = end
	}
	if err := bw.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("multi-chunk round trip mismatch")
	}
}

func TestBinaryTraceEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, nil); err != nil {
		t.Fatalf("WriteBinary(nil): %v", err)
	}
	if buf.String() != binaryMagic {
		t.Fatalf("empty trace = %q, want bare magic", buf.String())
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatalf("ReadBinary(empty): %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("empty trace decoded %d events", len(got))
	}
}

func TestBinaryTraceCorruptMagic(t *testing.T) {
	for _, in := range []string{"", "PMSB", "PMSBTRC0", "XXXXXXXX", "{\"seq\":0}"} {
		if _, err := ReadBinary(strings.NewReader(in)); err == nil {
			t.Errorf("ReadBinary(%q): no error", in)
		}
	}
}

// TestBinaryTraceTruncated: every proper prefix of a valid trace either
// decodes cleanly (chunks are self-contained) or errors — never panics,
// never fabricates events.
func TestBinaryTraceTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, traceFixture()); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut++ {
		events, err := ReadBinary(bytes.NewReader(full[:cut]))
		if err == nil && cut < len(full) && len(events) != 0 {
			// A prefix that drops bytes of the single chunk must error;
			// only the bare magic (cut == len(magic)) decodes as empty.
			t.Fatalf("cut %d: decoded %d events without error", cut, len(events))
		}
	}
	// Corrupt chunk headers: count 0 and count > maxChunkEvents.
	for _, bad := range [][]byte{
		append([]byte(binaryMagic), 0x00),
		append([]byte(binaryMagic), 0x81, 0x80, 0x04), // 1<<16 + 1
	} {
		if _, err := ReadBinary(bytes.NewReader(bad)); err == nil {
			t.Error("corrupt chunk count accepted")
		}
	}
	// Unknown kind: count=1, seq delta 0, t delta 0, kind 0xEE.
	bad := append([]byte(binaryMagic), 0x01, 0x00, 0x00, 0xEE)
	if _, err := ReadBinary(bytes.NewReader(bad)); err == nil ||
		!strings.Contains(err.Error(), "kind") {
		t.Errorf("unknown kind: err = %v", err)
	}
	// Stray bitmap bits: valid kind, bitmap with bit 10 set.
	bad = append([]byte(binaryMagic), 0x01, 0x00, 0x00, 0x01, 0x80, 0x08)
	if _, err := ReadBinary(bytes.NewReader(bad)); err == nil ||
		!strings.Contains(err.Error(), "bitmap") {
		t.Errorf("stray bitmap bits: err = %v", err)
	}
}

// TestBinaryTraceAutoDetect: binary is the only input format, so the
// readers must detect anything else — a JSONL export, an empty file,
// garbage — at the header and refuse it with one error naming the magic
// rather than a decode error from somewhere inside a chunk.
func TestBinaryTraceAutoDetect(t *testing.T) {
	inputs := map[string][]byte{
		"jsonl":   encodeJSONL(t, traceFixture()),
		"empty":   nil,
		"garbage": []byte("\x00\x01\x02 garbage"),
	}
	for name, raw := range inputs {
		_, err := ReadBinary(bytes.NewReader(raw))
		_, rerr := ReadTraceRange(bytes.NewReader(raw), 0, time.Second)
		st := NewStreamStats(StreamOptions{Counts: true})
		serr := st.Reduce(bytes.NewReader(raw))
		for fn, err := range map[string]error{"ReadBinary": err, "ReadTraceRange": rerr, "Reduce": serr} {
			if err == nil || !strings.Contains(err.Error(), "not a binary trace") {
				t.Errorf("%s(%s): err = %v, want a not-a-binary-trace error", fn, name, err)
			}
			if name != "empty" && (err == nil || !strings.Contains(err.Error(), binaryMagic)) {
				t.Errorf("%s(%s): err = %v does not name the magic", fn, name, err)
			}
		}
	}
}

// TestBinaryTraceSpillLossless: a ring far smaller than the stream,
// with a spill sink attached, loses nothing — spilled + retained is the
// exact input sequence, and Dropped() stays 0.
func TestBinaryTraceSpillLossless(t *testing.T) {
	for _, format := range []TraceFormat{FormatBinary, FormatJSONL} {
		t.Run(format.String(), func(t *testing.T) {
			const ringCap, n = 64, 1000
			var file bytes.Buffer
			sw := NewSpillWriter(&file, format)
			r := NewRing(ringCap)
			r.SetSpill(sw)
			for i := 0; i < n; i++ {
				r.Append(Event{Seq: uint64(i), T: time.Duration(i * 3), Kind: KindEnqueue,
					Node: 1, Port: int32(i % 4), PortBytes: int64(i)})
			}
			if r.Dropped() != 0 {
				t.Fatalf("Dropped() = %d with spill attached", r.Dropped())
			}
			if err := r.FlushSpill(); err != nil {
				t.Fatalf("FlushSpill: %v", err)
			}
			if err := sw.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if sw.Spilled() != n {
				t.Fatalf("Spilled() = %d, want %d", sw.Spilled(), n)
			}
			var got []Event
			if format == FormatBinary {
				var err error
				if got, err = ReadBinary(&file); err != nil {
					t.Fatalf("ReadBinary: %v", err)
				}
			} else {
				got = decodeJSONL(t, file.Bytes())
			}
			if len(got) != n {
				t.Fatalf("spill file holds %d events, want %d", len(got), n)
			}
			for i := range got {
				if got[i].Seq != uint64(i) {
					t.Fatalf("event %d: Seq = %d", i, got[i].Seq)
				}
			}
		})
	}
}

// TestBinaryTraceSpillOverwriteUnchanged: without a sink the ring keeps
// its historical overwrite-oldest behavior bit for bit.
func TestBinaryTraceSpillOverwriteUnchanged(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 10; i++ {
		r.Append(Event{Seq: uint64(i), Kind: KindEnqueue})
	}
	if r.Total() != 10 || r.Len() != 4 || r.Dropped() != 6 {
		t.Fatalf("Total/Len/Dropped = %d/%d/%d, want 10/4/6",
			r.Total(), r.Len(), r.Dropped())
	}
	evs := r.Events()
	for i, ev := range evs {
		if ev.Seq != uint64(6+i) {
			t.Fatalf("retained[%d].Seq = %d, want %d", i, ev.Seq, 6+i)
		}
	}
	if err := r.FlushSpill(); err == nil {
		t.Fatal("FlushSpill with stranded events and no sink: no error")
	}
	// SetSpill after Append must panic: the semantics switch is only
	// legal on an empty ring.
	defer func() {
		if recover() == nil {
			t.Fatal("SetSpill after Append did not panic")
		}
	}()
	r.SetSpill(NewSpillWriter(io.Discard, FormatBinary))
}

// TestBinaryTraceMerge: MergeTraces interleaves per-bus streams by
// (T, stream, Seq), is deterministic, honours the window, and refuses a
// stream that is not a trace.
func TestBinaryTraceMerge(t *testing.T) {
	a := []Event{{Seq: 0, T: 1, Kind: KindEnqueue, Node: 1},
		{Seq: 1, T: 5, Kind: KindDequeue, Node: 1}}
	b := []Event{{Seq: 0, T: 1, Kind: KindEnqueue, Node: 2},
		{Seq: 1, T: 3, Kind: KindDequeue, Node: 2}}
	got := mergeTraces(t, 0, 1<<63-1, encode(t, a), encode(t, b))
	wantNodes := []pkt.NodeID{1, 2, 2, 1}
	if len(got) != 4 {
		t.Fatalf("merged %d events, want 4", len(got))
	}
	for i, ev := range got {
		if ev.Node != wantNodes[i] {
			t.Fatalf("merge order: got node %d at %d, want %d", ev.Node, i, wantNodes[i])
		}
	}
	if got := mergeTraces(t, 2, 4, encode(t, a), encode(t, b)); len(got) != 1 || got[0].Node != 2 || got[0].T != 3 {
		t.Fatalf("windowed merge = %+v, want the one event at T=3", got)
	}
	if len(mergeTraces(t, 0, 1<<63-1)) != 0 || len(mergeTraces(t, 0, 1<<63-1, encode(t, nil), encode(t, nil))) != 0 {
		t.Fatal("merging no/empty streams should yield no events")
	}
	err := MergeTraces([]io.Reader{bytes.NewReader(encode(t, a)), strings.NewReader("garbage!")}, 0, 1<<63-1,
		func(*Event) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "not a binary trace") {
		t.Errorf("merge with a non-trace stream: err = %v", err)
	}
}

// TestBinaryTraceMergeChunked: a merge across many chunks per stream
// equals the in-memory interleaving of the decoded streams.
func TestBinaryTraceMergeChunked(t *testing.T) {
	var streams [][]Event
	var raws [][]byte
	for s := 0; s < 3; s++ {
		evs := make([]Event, writerChunkEvents*2+s*101)
		for i := range evs {
			evs[i] = Event{Seq: uint64(i), T: time.Duration(i*(s+2)) / 3, Kind: KindEnqueue, Node: pkt.NodeID(s)}
		}
		streams = append(streams, evs)
		raws = append(raws, encode(t, evs))
	}
	var want []Event
	idx := make([]int, len(streams))
	for {
		best := -1
		for i, s := range streams {
			if idx[i] < len(s) && (best < 0 || s[idx[i]].T < streams[best][idx[best]].T) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		want = append(want, streams[best][idx[best]])
		idx[best]++
	}
	if got := mergeTraces(t, 0, 1<<63-1, raws...); !reflect.DeepEqual(got, want) {
		t.Fatalf("chunked merge diverges from the in-memory interleaving (%d vs %d events)", len(got), len(want))
	}
}

func TestBinaryTraceFormatHelpers(t *testing.T) {
	if got := ShardTracePath("runs/trace.bin", 3); got != "runs/trace.shard3.bin" {
		t.Errorf("ShardTracePath = %q", got)
	}
	if got := ShardTracePath("trace", 0); got != "trace.shard0" {
		t.Errorf("ShardTracePath(no ext) = %q", got)
	}
	if FormatBinary.String() != "bin" || FormatJSONL.String() != "jsonl" {
		t.Errorf("TraceFormat names = %v, %v", FormatBinary, FormatJSONL)
	}
}

// FuzzReadBinary: the decoder must never panic or over-allocate on
// arbitrary input — errors only. The seed corpus (traceSeeds) is shared
// with FuzzStreamReduce.
func FuzzReadBinary(f *testing.F) {
	for _, seed := range traceSeeds() {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Whatever decodes must re-encode and decode to the same thing.
		var buf bytes.Buffer
		if err := WriteBinary(&buf, events); err != nil {
			t.Fatalf("re-encode of decoded trace failed: %v", err)
		}
		again, err := ReadBinary(&buf)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(again) != len(events) {
			t.Fatalf("re-decode: %d events, want %d", len(again), len(events))
		}
	})
}
