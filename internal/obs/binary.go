package obs

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"time"

	"pmsb/internal/pkt"
)

// This file is the binary trace codec: a compact, chunked, columnar
// encoding of Event streams, and the only format traces are stored in
// or read back from. A JSONL line spends ~200 bytes and one
// encoding/json walk per record; at fabric scale that walk IS the
// tracing overhead, which is why JSONL survives only as the pmsbstat
// -export conversion. The binary format spends a handful of bytes per
// record and encodes column-by-column (struct-of-arrays passes over the
// chunk), so the hot encode loop touches one field of many events
// instead of many fields of one event — the same cache-layout argument
// that motivated the 80-byte Event record itself.
//
// Layout (little-endian throughout; see DESIGN.md section 7 for the
// field table):
//
//	file  := magic chunk*
//	magic := "PMSBTRC1" (8 bytes)
//	chunk := uvarint count (1..maxChunkEvents), then columns in order:
//	  seq    count x zigzag-varint delta vs previous event (running
//	         across chunks; the first event's delta is vs 0)
//	  t      count x zigzag-varint delta (same discipline)
//	  kind   count x 1 byte
//	  bits   count x uvarint field bitmap (bitNode..bitV); a clear bit
//	         means the field is zero and stores no bytes
//	  node   zigzag-varint per event with bitNode set
//	  port   zigzag-varint per event with bitPort
//	  queue  zigzag-varint per event with bitQueue
//	  flow   uvarint per event with bitFlow
//	  pkt    uvarint per event with bitPkt
//	  size   zigzag-varint per event with bitSize
//	  reason 1 byte per event with bitReason
//	  pb     zigzag-varint per event with bitPortBytes
//	  qb     zigzag-varint per event with bitQueueBytes
//	  v      8-byte IEEE-754 bits per event with bitV
//
// Varint deltas make the two always-present wide fields (Seq, T) cost
// 1-2 bytes at steady state (Seq deltas within one bus are exactly 1);
// the bitmap makes the zero fields of each kind free. A typical port
// event lands well under 20 bytes, against ~200 for its JSONL line.
//
// The codec is lossless: WriteBinary then ReadBinary reproduces the
// exact Event values, so a JSONL export of a stored trace is
// byte-identical to encoding the live events directly (the differential
// tests prove it on real workloads).

// binaryMagic identifies a binary trace stream. The trailing digit
// versions the format.
const binaryMagic = "PMSBTRC1"

// maxChunkEvents bounds the events per chunk: the writer's batching
// grain, and the reader's allocation bound against corrupt counts.
const maxChunkEvents = 1 << 16

// writerChunkEvents is the writer's default chunk size. Large enough to
// amortize per-chunk overhead, small enough that spill flushes stream
// incrementally.
const writerChunkEvents = 1 << 13

// Field bitmap bits, in column order.
const (
	bitNode = 1 << iota
	bitPort
	bitQueue
	bitFlow
	bitPkt
	bitSize
	bitReason
	bitPortBytes
	bitQueueBytes
	bitV

	bitsAll = 1<<10 - 1
)

// BinaryWriter encodes events into the binary trace format. Create one
// with NewBinaryWriter, feed it event batches with Write (order is
// preserved; batches may be any size), and Flush when done. The writer
// does not buffer the underlying io.Writer — wrap files in a
// bufio.Writer (SpillWriter does) or use the WriteBinary convenience.
type BinaryWriter struct {
	w          io.Writer
	wroteMagic bool
	prevSeq    uint64
	prevT      int64
	// pending accumulates events until a full chunk is ready, so chunk
	// boundaries land every writerChunkEvents regardless of how the
	// caller batches Write calls. The encoding is therefore canonical:
	// the same event sequence produces the same bytes whether it was
	// spilled 64 events at a time or written in one call — traces can
	// be compared byte-for-byte across ring sizes.
	pending []Event
	// cols are the reusable per-column scratch buffers of the
	// struct-of-arrays encode pass; buf assembles the chunk.
	cols [14][]byte
	buf  []byte
}

// NewBinaryWriter returns a writer emitting to w. The magic header is
// written lazily by the first Write, so a trace that records nothing
// can still be a valid (empty) file via Flush.
func NewBinaryWriter(w io.Writer) *BinaryWriter {
	return &BinaryWriter{w: w}
}

// Write appends events to the stream; full chunks are encoded eagerly,
// a trailing partial chunk waits for more events or Flush.
func (e *BinaryWriter) Write(events []Event) error {
	if err := e.writeMagic(); err != nil {
		return err
	}
	for len(events) > 0 {
		if len(e.pending) == 0 && len(events) >= writerChunkEvents {
			// Fast path: a full chunk straight from the caller's slice,
			// no staging copy.
			if err := e.writeChunk(events[:writerChunkEvents]); err != nil {
				return err
			}
			events = events[writerChunkEvents:]
			continue
		}
		n := writerChunkEvents - len(e.pending)
		if n > len(events) {
			n = len(events)
		}
		e.pending = append(e.pending, events[:n]...)
		events = events[n:]
		if len(e.pending) == writerChunkEvents {
			if err := e.writeChunk(e.pending); err != nil {
				return err
			}
			e.pending = e.pending[:0]
		}
	}
	return nil
}

// Flush encodes any buffered partial chunk and guarantees the magic
// header exists even for an empty trace. The stream stays valid for
// further Writes, but flushing mid-stream forfeits canonical chunking.
func (e *BinaryWriter) Flush() error {
	if err := e.writeMagic(); err != nil {
		return err
	}
	if len(e.pending) > 0 {
		if err := e.writeChunk(e.pending); err != nil {
			return err
		}
		e.pending = e.pending[:0]
	}
	return nil
}

func (e *BinaryWriter) writeMagic() error {
	if e.wroteMagic {
		return nil
	}
	e.wroteMagic = true
	if _, err := io.WriteString(e.w, binaryMagic); err != nil {
		return fmt.Errorf("obs: write trace magic: %w", err)
	}
	return nil
}

// writeChunk encodes one chunk (len(events) <= maxChunkEvents): a
// single pass over the events scatters each field into its column
// buffer (the struct-of-arrays repack — each event's cache lines are
// read exactly once, and the small column buffers stay hot), then the
// columns are concatenated in layout order.
func (e *BinaryWriter) writeChunk(events []Event) error {
	// Work on a stack copy of the column headers: appends then update
	// local slice headers instead of pointer fields of the heap-resident
	// writer, keeping GC write barriers out of the encode loop (they
	// cost ~25% of the encode at full rate). Written back once below.
	c := e.cols
	for i := range c {
		c[i] = c[i][:0]
	}
	prevSeq, prevT := e.prevSeq, e.prevT
	for i := range events {
		ev := &events[i]
		c[0] = binary.AppendVarint(c[0], int64(ev.Seq-prevSeq))
		prevSeq = ev.Seq
		t := int64(ev.T)
		c[1] = binary.AppendVarint(c[1], t-prevT)
		prevT = t
		c[2] = append(c[2], byte(ev.Kind))
		// The bitmap is assembled while the present fields are encoded —
		// one read of each field decides its bit and stores its bytes.
		var bits uint64
		if ev.Node != 0 {
			bits |= bitNode
			c[4] = binary.AppendVarint(c[4], int64(ev.Node))
		}
		if ev.Port != 0 {
			bits |= bitPort
			c[5] = binary.AppendVarint(c[5], int64(ev.Port))
		}
		if ev.Queue != 0 {
			bits |= bitQueue
			c[6] = binary.AppendVarint(c[6], int64(ev.Queue))
		}
		if ev.Flow != 0 {
			bits |= bitFlow
			c[7] = binary.AppendUvarint(c[7], uint64(ev.Flow))
		}
		if ev.Pkt != 0 {
			bits |= bitPkt
			c[8] = binary.AppendUvarint(c[8], ev.Pkt)
		}
		if ev.Size != 0 {
			bits |= bitSize
			c[9] = binary.AppendVarint(c[9], ev.Size)
		}
		if ev.Reason != 0 {
			bits |= bitReason
			c[10] = append(c[10], byte(ev.Reason))
		}
		if ev.PortBytes != 0 {
			bits |= bitPortBytes
			c[11] = binary.AppendVarint(c[11], ev.PortBytes)
		}
		if ev.QueueBytes != 0 {
			bits |= bitQueueBytes
			c[12] = binary.AppendVarint(c[12], ev.QueueBytes)
		}
		if ev.V != 0 {
			bits |= bitV
			c[13] = binary.LittleEndian.AppendUint64(c[13], math.Float64bits(ev.V))
		}
		c[3] = binary.AppendUvarint(c[3], bits)
	}
	e.prevSeq, e.prevT = prevSeq, prevT
	e.cols = c

	e.buf = binary.AppendUvarint(e.buf[:0], uint64(len(events)))
	for _, col := range c {
		e.buf = append(e.buf, col...)
	}
	if _, err := e.w.Write(e.buf); err != nil {
		return fmt.Errorf("obs: write trace chunk: %w", err)
	}
	return nil
}

// WriteBinary writes events to w in the binary trace format, buffered.
// The inverse is ReadBinary. Writing an empty slice produces a valid
// empty trace (magic only).
func WriteBinary(w io.Writer, events []Event) error {
	bw := bufio.NewWriterSize(w, traceBufSize)
	e := NewBinaryWriter(bw)
	if err := e.Write(events); err != nil {
		return err
	}
	if err := e.Flush(); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("obs: write trace: %w", err)
	}
	return nil
}

// BinaryReader decodes a binary trace stream chunk by chunk.
type BinaryReader struct {
	br      *bufio.Reader
	prevSeq uint64
	prevT   int64
	// seqBuf/tBuf hold the decoded Seq and T columns of the chunk under
	// decode. They are reader-owned scratch, reused across chunks: the
	// delta chains run across chunk boundaries, so every chunk's Seq and
	// T columns must be decoded even when the chunk is skipped by a
	// range read — but a skipped chunk materializes nothing else.
	seqBuf []uint64
	tBuf   []int64
}

// NewBinaryReader wraps r and validates the magic header. A reader on a
// stream that is not a binary trace fails here, not mid-decode.
func NewBinaryReader(r io.Reader) (*BinaryReader, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, traceBufSize)
	}
	var magic [len(binaryMagic)]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("obs: not a binary trace (short or unreadable header): %w", err)
	}
	if string(magic[:]) != binaryMagic {
		return nil, fmt.Errorf("obs: not a binary trace (bad magic %q, want %q)",
			magic[:], binaryMagic)
	}
	return &BinaryReader{br: br}, nil
}

// Next decodes the next chunk, returning io.EOF at a clean end of
// stream. A stream that ends mid-chunk returns a truncation error.
func (d *BinaryReader) Next() ([]Event, error) {
	count, err := d.chunkCount()
	if err != nil {
		return nil, err
	}
	events, err := d.decodeChunk(count)
	if err != nil {
		return nil, d.truncated(count, err)
	}
	return events, nil
}

// NextRange decodes the next chunk, keeping only events with
// since <= T <= until. A chunk that falls entirely outside the range is
// skimmed: its Seq and T columns are still decoded (their delta chains
// carry state into the next chunk) but the remaining columns are parsed
// without materializing an event slice, so scanning a narrow window of
// a large trace skips most of the decode cost. A skipped or
// filtered-empty chunk returns (nil, nil); io.EOF ends the stream.
func (d *BinaryReader) NextRange(since, until time.Duration) ([]Event, error) {
	count, err := d.chunkCount()
	if err != nil {
		return nil, err
	}
	if err := d.readSeqT(count); err != nil {
		return nil, d.truncated(count, err)
	}
	// Events within one stream are time-ordered, but a merged or
	// hand-built trace need not be — bound the chunk by scanning the
	// column we already decoded rather than trusting its endpoints.
	minT, maxT := d.tBuf[0], d.tBuf[0]
	for _, t := range d.tBuf[1:count] {
		if t < minT {
			minT = t
		}
		if t > maxT {
			maxT = t
		}
	}
	if time.Duration(maxT) < since || time.Duration(minT) > until {
		if err := d.skipBody(count); err != nil {
			return nil, d.truncated(count, err)
		}
		return nil, nil
	}
	events := d.materialize(count)
	if err := d.readBody(events); err != nil {
		return nil, d.truncated(count, err)
	}
	kept := events[:0]
	for i := range events {
		if events[i].T >= since && events[i].T <= until {
			kept = append(kept, events[i])
		}
	}
	if len(kept) == 0 {
		return nil, nil
	}
	return kept, nil
}

// chunkCount reads and validates a chunk header. A clean end of stream
// is io.EOF.
func (d *BinaryReader) chunkCount() (int, error) {
	count, err := binary.ReadUvarint(d.br)
	if err == io.EOF {
		return 0, io.EOF
	}
	if err != nil {
		return 0, fmt.Errorf("obs: trace chunk header: %w", err)
	}
	if count == 0 || count > maxChunkEvents {
		return 0, fmt.Errorf("obs: corrupt trace chunk (count %d, want 1..%d)",
			count, maxChunkEvents)
	}
	return int(count), nil
}

// truncated wraps a mid-chunk EOF into a truncation error.
func (d *BinaryReader) truncated(count int, err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return fmt.Errorf("obs: truncated trace chunk (%d events promised): %w",
			count, io.ErrUnexpectedEOF)
	}
	return err
}

// decodeChunk decodes one whole chunk body of count events.
func (d *BinaryReader) decodeChunk(count int) ([]Event, error) {
	if err := d.readSeqT(count); err != nil {
		return nil, err
	}
	events := d.materialize(count)
	if err := d.readBody(events); err != nil {
		return nil, err
	}
	return events, nil
}

// readSeqT decodes the chunk's Seq and T delta columns into the scratch
// buffers, advancing the cross-chunk delta state.
func (d *BinaryReader) readSeqT(count int) error {
	if cap(d.seqBuf) < count {
		d.seqBuf = make([]uint64, count)
		d.tBuf = make([]int64, count)
	}
	d.seqBuf, d.tBuf = d.seqBuf[:count], d.tBuf[:count]
	for i := range d.seqBuf {
		delta, err := binary.ReadVarint(d.br)
		if err != nil {
			return err
		}
		d.prevSeq += uint64(delta)
		d.seqBuf[i] = d.prevSeq
	}
	for i := range d.tBuf {
		delta, err := binary.ReadVarint(d.br)
		if err != nil {
			return err
		}
		d.prevT += delta
		d.tBuf[i] = d.prevT
	}
	return nil
}

// materialize allocates the chunk's event slice with the already-decoded
// Seq and T columns filled in.
func (d *BinaryReader) materialize(count int) []Event {
	events := make([]Event, count)
	for i := range events {
		events[i].Seq = d.seqBuf[i]
		events[i].T = time.Duration(d.tBuf[i])
	}
	return events
}

// skipBody parses a chunk's remaining columns without storing them. The
// varint columns are not self-delimiting, so every value is still
// decoded byte-by-byte; what a skim saves is the event-slice allocation
// and field scatter — the bulk of a chunk's decode footprint.
func (d *BinaryReader) skipBody(count int) error {
	for i := 0; i < count; i++ {
		k, err := d.br.ReadByte()
		if err != nil {
			return err
		}
		if k == 0 || Kind(k) >= numKinds {
			return fmt.Errorf("obs: corrupt trace chunk (unknown kind %d)", k)
		}
	}
	var present [10]int
	for i := 0; i < count; i++ {
		b, err := binary.ReadUvarint(d.br)
		if err != nil {
			return err
		}
		if b > bitsAll {
			return fmt.Errorf("obs: corrupt trace chunk (field bitmap %#x)", b)
		}
		for j := range present {
			if b&(1<<j) != 0 {
				present[j]++
			}
		}
	}
	// Field columns in layout order. Signed and unsigned varints share
	// the same wire shape, so one skip loop serves node..size and pb/qb;
	// reason and v are fixed-width and discard in one step.
	for _, idx := range [...]int{0, 1, 2, 3, 4, 5} {
		for j := 0; j < present[idx]; j++ {
			if _, err := binary.ReadUvarint(d.br); err != nil {
				return err
			}
		}
	}
	if _, err := d.br.Discard(present[6]); err != nil {
		return err
	}
	for _, idx := range [...]int{7, 8} {
		for j := 0; j < present[idx]; j++ {
			if _, err := binary.ReadUvarint(d.br); err != nil {
				return err
			}
		}
	}
	if _, err := d.br.Discard(8 * present[9]); err != nil {
		return err
	}
	return nil
}

// readBody decodes the chunk columns after Seq and T into events.
func (d *BinaryReader) readBody(events []Event) error {
	for i := range events {
		k, err := d.br.ReadByte()
		if err != nil {
			return err
		}
		if k == 0 || Kind(k) >= numKinds {
			return fmt.Errorf("obs: corrupt trace chunk (unknown kind %d)", k)
		}
		events[i].Kind = Kind(k)
	}
	bits := make([]uint16, len(events))
	for i := range events {
		b, err := binary.ReadUvarint(d.br)
		if err != nil {
			return err
		}
		if b > bitsAll {
			return fmt.Errorf("obs: corrupt trace chunk (field bitmap %#x)", b)
		}
		bits[i] = uint16(b)
	}
	for i := range events {
		if bits[i]&bitNode != 0 {
			v, err := d.readInt32()
			if err != nil {
				return err
			}
			events[i].Node = pkt.NodeID(v)
		}
	}
	for i := range events {
		if bits[i]&bitPort != 0 {
			v, err := d.readInt32()
			if err != nil {
				return err
			}
			events[i].Port = v
		}
	}
	for i := range events {
		if bits[i]&bitQueue != 0 {
			v, err := d.readInt32()
			if err != nil {
				return err
			}
			events[i].Queue = v
		}
	}
	for i := range events {
		if bits[i]&bitFlow != 0 {
			v, err := binary.ReadUvarint(d.br)
			if err != nil {
				return err
			}
			events[i].Flow = pkt.FlowID(v)
		}
	}
	for i := range events {
		if bits[i]&bitPkt != 0 {
			v, err := binary.ReadUvarint(d.br)
			if err != nil {
				return err
			}
			events[i].Pkt = v
		}
	}
	for i := range events {
		if bits[i]&bitSize != 0 {
			v, err := binary.ReadVarint(d.br)
			if err != nil {
				return err
			}
			events[i].Size = v
		}
	}
	for i := range events {
		if bits[i]&bitReason != 0 {
			b, err := d.br.ReadByte()
			if err != nil {
				return err
			}
			events[i].Reason = DropReason(b)
		}
	}
	for i := range events {
		if bits[i]&bitPortBytes != 0 {
			v, err := binary.ReadVarint(d.br)
			if err != nil {
				return err
			}
			events[i].PortBytes = v
		}
	}
	for i := range events {
		if bits[i]&bitQueueBytes != 0 {
			v, err := binary.ReadVarint(d.br)
			if err != nil {
				return err
			}
			events[i].QueueBytes = v
		}
	}
	var f8 [8]byte
	for i := range events {
		if bits[i]&bitV != 0 {
			if _, err := io.ReadFull(d.br, f8[:]); err != nil {
				return err
			}
			events[i].V = math.Float64frombits(binary.LittleEndian.Uint64(f8[:]))
		}
	}
	return nil
}

// readInt32 reads a zigzag varint and range-checks it into 32 bits.
func (d *BinaryReader) readInt32() (int32, error) {
	v, err := binary.ReadVarint(d.br)
	if err != nil {
		return 0, err
	}
	if v < math.MinInt32 || v > math.MaxInt32 {
		return 0, fmt.Errorf("obs: corrupt trace chunk (32-bit field holds %d)", v)
	}
	return int32(v), nil
}

// ReadBinary parses a complete binary trace (as written by WriteBinary
// or a spilling ring) back into events.
func ReadBinary(r io.Reader) ([]Event, error) {
	d, err := NewBinaryReader(r)
	if err != nil {
		return nil, err
	}
	var out []Event
	for {
		chunk, err := d.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, chunk...)
	}
}

// ReadBinaryRange parses a binary trace keeping only events with
// since <= T <= until, skimming chunks that fall entirely outside the
// range instead of materializing them (see BinaryReader.NextRange).
func ReadBinaryRange(r io.Reader, since, until time.Duration) ([]Event, error) {
	d, err := NewBinaryReader(r)
	if err != nil {
		return nil, err
	}
	var out []Event
	for {
		chunk, err := d.NextRange(since, until)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, chunk...)
	}
}
