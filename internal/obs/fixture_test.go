package obs

import (
	"bytes"
	"io"
	"os"
	"reflect"
	"testing"
	"time"
)

// testdata/trace_v1.bin pins the PMSBTRC1 format: 200 events over three
// chunks (130, 40 and 30 events, so the first count takes two bytes),
// every kind, every optional field at zero and non-zero, the extremes of
// every column (32-bit ids at both bounds, 64-bit fields at MaxUint64,
// MinInt64 and MaxInt64, V at MaxFloat64 and the smallest negative
// subnormal, a reason byte of 255), a 40 ms T gap, a 2^40 Seq gap and a
// second run whose virtual time restarts. testdata/trace_v1.jsonl is
// its pmsbstat -export. Both were written once by the writer of the
// format's first release and must never be regenerated: every reader
// must keep decoding the same bytes to the same events.
const (
	fixtureTrace = "testdata/trace_v1.bin"
	fixtureJSONL = "testdata/trace_v1.jsonl"
)

// TestBinaryFixture decodes the committed trace with every reader and
// holds each to the committed export.
func TestBinaryFixture(t *testing.T) {
	raw, err := os.ReadFile(fixtureTrace)
	if err != nil {
		t.Fatal(err)
	}
	export, err := os.ReadFile(fixtureJSONL)
	if err != nil {
		t.Fatal(err)
	}
	want := decodeJSONL(t, export)
	if len(want) != 200 {
		t.Fatalf("fixture export holds %d events, want 200", len(want))
	}

	got, err := ReadBinary(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("ReadBinary diverges from the committed export")
	}
	if !bytes.Equal(encodeJSONL(t, got), export) {
		t.Error("re-exported fixture is not byte-identical to the committed export")
	}

	// The writer still produces the same bytes for the same chunking.
	d, err := NewBinaryReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	w := NewBinaryWriter(&again)
	for {
		chunk, err := d.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if err := w.Write(chunk); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(again.Bytes(), raw) {
		t.Error("re-encoding the fixture chunk by chunk does not reproduce its bytes")
	}

	// The middle window cuts into the first chunk, spans the T gap and
	// catches part of the second run.
	for _, cut := range []struct{ since, until time.Duration }{
		{0, 1<<63 - 1},
		{want[50].T, want[100].T},
	} {
		rangeWant := filterEvents(want, cut.since, cut.until)
		if len(rangeWant) == 0 {
			t.Fatalf("window [%v, %v] of the fixture is empty", cut.since, cut.until)
		}
		got, err := ReadBinaryRange(bytes.NewReader(raw), cut.since, cut.until)
		if err != nil {
			t.Fatalf("ReadBinaryRange(%v, %v): %v", cut.since, cut.until, err)
		}
		if !reflect.DeepEqual(got, rangeWant) {
			t.Errorf("ReadBinaryRange(%v, %v) diverges from the filtered export", cut.since, cut.until)
		}

		opt := allReductions
		opt.Since, opt.Until = cut.since, cut.until
		st := NewStreamStats(opt)
		if err := st.Reduce(bytes.NewReader(raw)); err != nil {
			t.Fatalf("Reduce: %v", err)
		}
		assertStreamMatches(t, st, rangeWant)
	}

	// One stream merges to itself, in file order.
	if got := mergeTraces(t, 0, 1<<63-1, raw); !reflect.DeepEqual(got, want) {
		t.Error("MergeTraces over the fixture diverges from the committed export")
	}
}
