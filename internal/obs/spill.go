package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"time"
)

// This file is the spill path: instead of overwriting its oldest events
// when full, a Ring with a SpillWriter attached flushes its retained
// contents (oldest first) into the writer and keeps going — a bounded
// ring becomes a bounded *buffer* in front of an unbounded stream, and
// a full-length run is traced losslessly. Spill files are per-ring;
// under sharded execution each shard's bus spills to its own file and
// MergeEvents reassembles the deterministic interleaving at read time.

// traceBufSize is the bufio buffer for trace file I/O (both spill
// writers and readers). Big enough that a spill flush of a few thousand
// events issues a handful of write syscalls, not hundreds.
const traceBufSize = 256 * 1024

// TraceFormat selects the encoding a SpillWriter emits.
type TraceFormat uint8

const (
	// FormatJSONL: one JSON object per line. Self-describing and
	// greppable but ~200 bytes/event, and write-only: nothing reads it
	// back. It exists for pmsbstat -export.
	FormatJSONL TraceFormat = iota
	// FormatBinary: the chunked columnar codec (binary.go), the format
	// trace files are stored in. Opaque but ~10-20 bytes/event and an
	// order of magnitude cheaper to encode.
	FormatBinary
)

// String implements fmt.Stringer.
func (f TraceFormat) String() string {
	if f == FormatBinary {
		return "bin"
	}
	return "jsonl"
}

// ShardTracePath derives the per-shard spill file name for a requested
// trace path: "trace.bin" -> "trace.shard3.bin". The shard index is
// embedded before the extension so the derived names keep it.
func ShardTracePath(path string, shard int) string {
	ext := filepath.Ext(path)
	return fmt.Sprintf("%s.shard%d%s", strings.TrimSuffix(path, ext), shard, ext)
}

// SpillWriter is the streaming sink a Ring flushes into when full. It
// owns the buffering (one bufio.Writer over the destination) and the
// encoding (JSONL or binary); Close flushes everything down to the
// destination writer but does not close it (the caller owns the file).
//
// Like the Ring it serves, a SpillWriter is single-goroutine.
type SpillWriter struct {
	bw      *bufio.Writer
	enc     *json.Encoder // JSONL mode
	bin     *BinaryWriter // binary mode
	spilled uint64
}

// NewSpillWriter returns a spill sink encoding events to w in the given
// format.
func NewSpillWriter(w io.Writer, format TraceFormat) *SpillWriter {
	s := &SpillWriter{bw: bufio.NewWriterSize(w, traceBufSize)}
	if format == FormatBinary {
		s.bin = NewBinaryWriter(s.bw)
	} else {
		s.enc = json.NewEncoder(s.bw)
	}
	return s
}

// Spilled returns the number of events written so far.
func (s *SpillWriter) Spilled() uint64 { return s.spilled }

// Spill encodes a batch of events, oldest first.
func (s *SpillWriter) Spill(events []Event) error {
	if s.bin != nil {
		if err := s.bin.Write(events); err != nil {
			return err
		}
		s.spilled += uint64(len(events))
		return nil
	}
	for i := range events {
		if err := s.enc.Encode(&events[i]); err != nil {
			return fmt.Errorf("obs: spill trace event: %w", err)
		}
		s.spilled++
	}
	return nil
}

// Close flushes buffered data to the destination writer. The spill file
// is incomplete until Close returns nil. Close does not close the
// underlying writer.
func (s *SpillWriter) Close() error {
	if s.bin != nil {
		if err := s.bin.Flush(); err != nil {
			return err
		}
	}
	if err := s.bw.Flush(); err != nil {
		return fmt.Errorf("obs: flush spill: %w", err)
	}
	return nil
}

// MergeEvents interleaves per-shard (per-bus) event streams into one
// deterministic total order: by time, then by stream index, then by the
// per-bus sequence number. Each input stream must itself be
// time-ordered (a single bus's trace always is — Seq order is emission
// order and virtual time never goes backwards within one engine).
//
// The PDES determinism contract (DESIGN.md section 8) makes each shard's
// per-bus stream byte-identical to the same bus's stream in a serial
// run, so merging the spill files of an N-shard run with MergeEvents
// equals merging the N buses of a serial run: the sharded trace is the
// serial trace.
func MergeEvents(streams ...[]Event) []Event {
	total := 0
	for _, s := range streams {
		total += len(s)
	}
	out := make([]Event, 0, total)
	// idx tracks the merge frontier of each stream.
	idx := make([]int, len(streams))
	for len(out) < total {
		best := -1
		for i, s := range streams {
			if idx[i] >= len(s) {
				continue
			}
			if best == -1 {
				best = i
				continue
			}
			// Strict < keeps the lowest stream index on a time tie
			// (streams are scanned in index order), and within one
			// stream Seq order is preserved by the frontier walk.
			if streams[i][idx[i]].T < streams[best][idx[best]].T {
				best = i
			}
		}
		out = append(out, streams[best][idx[best]])
		idx[best]++
	}
	return out
}

// ReadTraceRange parses a binary trace keeping only events with
// since <= T <= until; it is ReadBinaryRange under the name pmsbstat
// and benchmark/ call. Input in any other format (a JSONL export, an
// empty file) fails with NewBinaryReader's error naming the magic.
func ReadTraceRange(r io.Reader, since, until time.Duration) ([]Event, error) {
	return ReadBinaryRange(r, since, until)
}
