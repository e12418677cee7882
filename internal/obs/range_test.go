package obs

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"pmsb/internal/pkt"
)

// rangeFixture builds a multi-chunk binary trace: chunkSizes[i] events
// per chunk (each Write is flushed into a chunk of its own), at one
// event per microsecond of virtual time.
func rangeFixture(t *testing.T, chunkSizes ...int) ([]byte, []Event) {
	t.Helper()
	var all []Event
	seq := uint64(0)
	for _, n := range chunkSizes {
		for i := 0; i < n; i++ {
			all = append(all, Event{
				Seq: seq, T: time.Duration(seq) * time.Microsecond,
				Kind: KindEnqueue, Node: pkt.NodeID(seq % 5), Port: int32(seq % 3),
				Queue: int32(seq % 4), Pkt: seq, Size: 1500,
				PortBytes: int64(1500 * (seq%7 + 1)), QueueBytes: 1500,
			})
			seq++
		}
	}
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf)
	off := 0
	for _, n := range chunkSizes {
		if err := w.Write(all[off : off+n]); err != nil {
			t.Fatalf("Write: %v", err)
		}
		if err := w.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
		off += n
	}
	return buf.Bytes(), all
}

// filterEvents is the reference semantics: keep events with
// since <= T <= until.
func filterEvents(events []Event, since, until time.Duration) []Event {
	var out []Event
	for _, ev := range events {
		if ev.T >= since && ev.T <= until {
			out = append(out, ev)
		}
	}
	return out
}

// ReadBinaryRange must agree with read-everything-then-filter for every
// cut of a multi-chunk trace — including cuts that skip leading chunks,
// trailing chunks, or land mid-chunk. Skipped chunks still advance the
// cross-chunk seq/T delta state, which is what this differential
// exercises.
func TestReadBinaryRangeDifferential(t *testing.T) {
	raw, all := rangeFixture(t, 100, 100, 100, 50)
	last := all[len(all)-1].T
	cuts := []struct {
		name         string
		since, until time.Duration
	}{
		{"all", 0, last},
		{"everything-and-more", 0, 1 << 62},
		{"skip-first-chunk", 150 * time.Microsecond, last},
		{"skip-last-chunks", 0, 120 * time.Microsecond},
		{"mid-chunk-to-mid-chunk", 150 * time.Microsecond, 250 * time.Microsecond},
		{"interior-chunk-only", 100 * time.Microsecond, 199 * time.Microsecond},
		{"single-event", 200 * time.Microsecond, 200 * time.Microsecond},
		{"empty-before", 0, 0},
		{"empty-between-events", 100*time.Microsecond + 1, 101*time.Microsecond - 1},
		{"empty-after", last + 1, 1 << 62},
	}
	for _, cut := range cuts {
		t.Run(cut.name, func(t *testing.T) {
			got, err := ReadBinaryRange(bytes.NewReader(raw), cut.since, cut.until)
			if err != nil {
				t.Fatalf("ReadBinaryRange: %v", err)
			}
			want := filterEvents(all, cut.since, cut.until)
			if len(got) != len(want) {
				t.Fatalf("got %d events, want %d", len(got), len(want))
			}
			if len(want) > 0 && !reflect.DeepEqual(got, want) {
				t.Fatalf("range read diverges from filtered full read")
			}
		})
	}
}

// The range reader handles every column layout, not just the dense
// enqueue mix: run the representative fixture (zero-heavy flow events,
// floats, drop reasons) through a range that keeps part of it.
func TestReadBinaryRangeMixedKinds(t *testing.T) {
	all := traceFixture()
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf)
	// Two chunks (a flush ends the first); the range cuts into both.
	for _, part := range [][]Event{all[:4], all[4:]} {
		if err := w.Write(part); err != nil {
			t.Fatalf("Write: %v", err)
		}
		if err := w.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
	}
	since := 2 * time.Microsecond
	until := 4 * time.Millisecond
	got, err := ReadBinaryRange(bytes.NewReader(buf.Bytes()), since, until)
	if err != nil {
		t.Fatalf("ReadBinaryRange: %v", err)
	}
	want := filterEvents(all, since, until)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("mixed-kind range read mismatch:\n got %+v\nwant %+v", got, want)
	}
}

// ReadTraceRange applies ReadBinaryRange's [since, until] semantics to
// a binary trace and refuses the other format: JSONL is an export, not
// an input.
func TestReadTraceRangeBothFormats(t *testing.T) {
	all := traceFixture()
	since, until := 1500*time.Nanosecond, 3*time.Millisecond

	var bin bytes.Buffer
	if err := WriteBinary(&bin, all); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	t.Run("binary", func(t *testing.T) {
		got, err := ReadTraceRange(&bin, since, until)
		if err != nil {
			t.Fatalf("ReadTraceRange: %v", err)
		}
		if want := filterEvents(all, since, until); !reflect.DeepEqual(got, want) {
			t.Fatalf("range read mismatch:\n got %+v\nwant %+v", got, want)
		}
	})
	t.Run("jsonl", func(t *testing.T) {
		_, err := ReadTraceRange(bytes.NewReader(encodeJSONL(t, all)), since, until)
		if err == nil || !strings.Contains(err.Error(), binaryMagic) {
			t.Fatalf("JSONL input: err = %v, want an error naming the magic %q", err, binaryMagic)
		}
	})
}
