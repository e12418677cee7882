package obs

import (
	"bytes"
	"errors"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"pmsb/internal/pkt"
)

// The decoder's edge paths: inputs larger than the read buffer, readers
// that return a few bytes at a time or fail, and varints at the limits
// of the format (TestBinaryTraceTruncated cuts streams at every byte).
// Every reader of the format must give the same events or the same
// error on each of them.

// readEveryWay reads one stream with every reader of the format —
// ReadBinary, ReadBinaryRange over all time, StreamStats.Reduce with
// every reduction (checked against the events ReadBinary decoded) and
// MergeTraces over the one stream — and fails unless all four agree on
// the error text, or on the events. wrap, when not nil, wraps each
// reader's input. It returns ReadBinary's result.
func readEveryWay(t *testing.T, raw []byte, wrap func(io.Reader) io.Reader) ([]Event, error) {
	t.Helper()
	in := func() io.Reader {
		r := io.Reader(bytes.NewReader(raw))
		if wrap != nil {
			r = wrap(r)
		}
		return r
	}
	events, err := ReadBinary(in())
	ranged, rerr := ReadBinaryRange(in(), math.MinInt64, math.MaxInt64)
	st := NewStreamStats(allReductions)
	serr := st.Reduce(in())
	var merged []Event
	merr := MergeTraces([]io.Reader{in()}, math.MinInt64, math.MaxInt64, func(ev *Event) error {
		merged = append(merged, *ev)
		return nil
	})
	for name, e := range map[string]error{"ReadBinaryRange": rerr, "Reduce": serr, "MergeTraces": merr} {
		if (err == nil) != (e == nil) || err != nil && err.Error() != e.Error() {
			t.Fatalf("ReadBinary err = %v, %s err = %v", err, name, e)
		}
	}
	if err != nil {
		return nil, err
	}
	if !reflect.DeepEqual(ranged, events) {
		t.Fatalf("ReadBinaryRange over all time: %d events, ReadBinary %d (or they differ)", len(ranged), len(events))
	}
	if !reflect.DeepEqual(merged, events) {
		t.Fatalf("MergeTraces over one stream: %d events, ReadBinary %d (or they differ)", len(merged), len(events))
	}
	assertStreamMatches(t, st, events)
	return events, nil
}

// bigChunk encodes n events as one chunk, bypassing the writer's
// 8,192-event batching. Every event carries wide Pkt and V values, so
// both the varint and the fixed-width columns outgrow the read buffer.
func bigChunk(t *testing.T, n int) ([]byte, []Event) {
	t.Helper()
	events := make([]Event, n)
	for i := range events {
		events[i] = Event{Seq: uint64(i), T: time.Duration(i) * 100, Kind: Kind(1 + i%(int(numKinds)-1)),
			Node: pkt.NodeID(i % 7), Port: int32(i % 3), Queue: int32(i % 5), Flow: pkt.FlowID(i % 11),
			Pkt: math.MaxUint64 - uint64(i), Size: 1500, PortBytes: int64(i), QueueBytes: int64(i % 1500),
			V: float64(i) + 0.5}
	}
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf)
	if err := w.writeMagic(); err != nil {
		t.Fatal(err)
	}
	if err := w.writeChunk(events); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), events
}

// A chunk of the maximum size, several times the 256 KB read buffer,
// decodes across window refills in mid-column.
func TestDecodeChunkLargerThanBuffer(t *testing.T) {
	raw, want := bigChunk(t, maxChunkEvents)
	if len(raw) < 2*traceBufSize {
		t.Fatalf("chunk is %d bytes, want more than twice the %d-byte read buffer", len(raw), traceBufSize)
	}
	got, err := readEveryWay(t, raw, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("maximum-size chunk does not round-trip")
	}
	// Cut inside the chunk, past the first buffer's worth of bytes.
	if _, err := readEveryWay(t, raw[:len(raw)-traceBufSize/3], nil); err == nil ||
		!strings.Contains(err.Error(), "truncated trace chunk (65536 events promised)") {
		t.Fatalf("cut maximum-size chunk: err = %v, want a truncation error", err)
	}
}

// twoChunks encodes a 130-event and a 30-event chunk (the first count
// takes two bytes) and returns the offset where the second begins.
func twoChunks(t *testing.T) (raw []byte, events []Event, boundary int) {
	t.Helper()
	_, events = streamFixture(t, 160)
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf)
	for _, part := range [][]Event{events[:130], events[130:]} {
		if err := w.Write(part); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if boundary == 0 {
			boundary = buf.Len()
		}
	}
	return buf.Bytes(), events, boundary
}

// Readers that hand over one byte, or half of what was asked, per call
// decode exactly what a whole-buffer reader does.
func TestDecodeSlowReaders(t *testing.T) {
	raw, want, _ := twoChunks(t)
	big, bigWant := bigChunk(t, maxChunkEvents)
	for name, wrap := range map[string]func(io.Reader) io.Reader{
		"one-byte": iotest.OneByteReader,
		"half":     iotest.HalfReader,
	} {
		for _, in := range []struct {
			raw  []byte
			want []Event
		}{{raw, want}, {big, bigWant}} {
			got, err := readEveryWay(t, in.raw, wrap)
			if err != nil {
				t.Fatalf("%s reader: %v", name, err)
			}
			if !reflect.DeepEqual(got, in.want) {
				t.Fatalf("%s reader: %d events decode differently", name, len(in.want))
			}
		}
	}
}

// failingReader returns its bytes, then err instead of io.EOF.
type failingReader struct {
	data []byte
	err  error
}

func (r *failingReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, r.err
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

// A read error that is not an end of stream surfaces as itself, wherever
// it strikes: never as a truncation, never swallowed.
func TestDecodeReadErrorSurfaces(t *testing.T) {
	raw, _, _ := twoChunks(t)
	errDisk := errors.New("disk on fire")
	for cut := 0; cut < len(raw); cut++ {
		_, err := readEveryWay(t, raw, func(io.Reader) io.Reader {
			return &failingReader{data: raw[:cut], err: errDisk}
		})
		if !errors.Is(err, errDisk) || strings.Contains(err.Error(), "truncated") {
			t.Fatalf("read error after %d bytes: err = %v, want the reader's own error", cut, err)
		}
	}
}

// Varints at the edge of 64 bits, in a column every reader stores
// (Node, range-checked as a 32-bit id) and in one the reductions skip
// at wire level (Pkt): the skip rejects exactly what the decode rejects.
// The mid-column cases put an overlong varint where the skip reads
// eight bytes at a time.
func TestDecodeVarintLimits(t *testing.T) {
	ff := func(n int) []byte { return bytes.Repeat([]byte{0xFF}, n) }
	zeros := make([]byte, 19)
	cases := []struct {
		name   string
		bit    byte
		column []byte // one value per event
		err    string // "" decodes
	}{
		{"pkt max", bitPkt, append(ff(9), 0x01), ""},
		{"pkt non-minimal zero", bitPkt, []byte{0x80, 0x80, 0x00}, ""},
		{"pkt tenth byte too big", bitPkt, append(ff(9), 0x02), "varint overflows"},
		{"pkt eleven bytes", bitPkt, append(ff(10), 0x00), "varint overflows"},
		{"pkt cut short", bitPkt, ff(5), "truncated trace chunk"},
		{"pkt max mid-column", bitPkt, append(append(ff(9), 0x01), zeros...), ""},
		{"pkt tenth byte too big mid-column", bitPkt, append(append(ff(9), 0x02), zeros...), "varint overflows"},
		{"pkt eleven bytes mid-column", bitPkt, append(append(ff(10), 0x00), zeros...), "varint overflows"},
		{"node int32 max", bitNode, []byte{0xFE, 0xFF, 0xFF, 0xFF, 0x0F}, ""},
		{"node above int32", bitNode, []byte{0x80, 0x80, 0x80, 0x80, 0x10}, "32-bit field holds 2147483648"},
		{"node overflow", bitNode, append(ff(10), 0x00), "varint overflows"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// One event per terminator byte: count, Seq and T deltas 0,
			// kind enqueue, the bitmap, then the column.
			n := 0
			for _, b := range c.column {
				if b < 0x80 {
					n++
				}
			}
			n = max(n, 1)
			raw := append([]byte(binaryMagic), byte(n))
			for _, col := range []byte{0x00, 0x00, byte(KindEnqueue), c.bit} {
				raw = append(raw, bytes.Repeat([]byte{col}, n)...)
			}
			raw = append(raw, c.column...)
			_, err := readEveryWay(t, raw, nil)
			for _, opt := range []StreamOptions{{Counts: true}, {Depths: true}} {
				serr := NewStreamStats(opt).Reduce(bytes.NewReader(raw))
				if (err == nil) != (serr == nil) || err != nil && err.Error() != serr.Error() {
					t.Fatalf("Reduce(%+v) err = %v, ReadBinary err = %v", opt, serr, err)
				}
			}
			switch {
			case c.err == "" && err != nil:
				t.Fatalf("err = %v, want a clean decode", err)
			case c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err)):
				t.Fatalf("err = %v, want %q", err, c.err)
			}
		})
	}
}
