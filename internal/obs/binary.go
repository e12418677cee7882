package obs

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
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

	numFields = iota
	bitsAll   = 1<<numFields - 1
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
//
// It decodes from a window on its buffered input rather than asking the
// reader for one byte at a time: win[off:] are bytes the bufio.Reader
// already holds (Peek) that no column has consumed yet, and each column
// is one loop over that slice. A varint of one or two bytes — nearly
// every value of a real trace — decodes inline; a longer one goes to
// binary.Uvarint on the same slice. The window is refilled (the decoded
// prefix handed back with Discard, then Peek again) only when fewer than
// binary.MaxVarintLen64 bytes remain, so the fast path never checks for
// a varint running off its end; a column larger than the read buffer
// simply spans several refills. The last bytes of a stream, where the
// window cannot reach MaxVarintLen64, take a bounds-checked path that
// turns a value cut short into a truncation error.
type BinaryReader struct {
	br  *bufio.Reader
	win []byte
	off int
	// err is what br reported when the window last came up short. Peek
	// hands an error over once (it clears bufio's copy), so it is kept
	// here and returned once the window runs dry.
	err     error
	prevSeq uint64
	prevT   int64
	// seqBuf/tBuf hold the decoded Seq and T columns of the chunk under
	// decode. They are reader-owned scratch, reused across chunks: the
	// delta chains run across chunk boundaries, so every chunk's Seq and
	// T columns must be decoded even when the chunk is skipped by a
	// range read — but a skipped chunk materializes nothing else.
	seqBuf []uint64
	tBuf   []int64
	// cols holds the chunk's remaining columns (readCols); raw and fixed
	// stage one varint column and one fixed-width column on their way in.
	cols  chunkCols
	raw   []uint64
	fixed []byte
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
	return d.nextRange(math.MinInt64, math.MaxInt64, nil)
}

// NextRange decodes the next chunk, keeping only events with
// since <= T <= until. The chunk's Seq and T columns are always decoded
// (their delta chains carry state into the next chunk) and the remaining
// columns always parsed and validated, but only the in-range events are
// materialized — counted from the T column first, then built into a
// slice of exactly that size — so scanning a narrow window of a large
// trace skips most of the decode cost. A chunk with no event in range
// returns (nil, nil); io.EOF ends the stream.
func (d *BinaryReader) NextRange(since, until time.Duration) ([]Event, error) {
	return d.nextRange(since, until, nil)
}

// nextRange is NextRange materializing into buf's storage when it is
// large enough (MergeTraces reuses one buffer per stream).
func (d *BinaryReader) nextRange(since, until time.Duration, buf []Event) ([]Event, error) {
	count, err := d.chunkCount()
	if err != nil {
		return nil, err
	}
	if err := d.readSeqT(count); err != nil {
		return nil, d.truncated(count, err)
	}
	// Events within one stream are time-ordered, but a merged or
	// hand-built trace need not be — count the whole column rather than
	// trusting its endpoints.
	n := 0
	for _, t := range d.tBuf {
		if t >= int64(since) && t <= int64(until) {
			n++
		}
	}
	keep := uint16(0)
	if n > 0 {
		keep = bitsAll
	}
	if err := d.readCols(count, keep); err != nil {
		return nil, d.truncated(count, err)
	}
	if n == 0 {
		return nil, nil
	}
	events, c := resize(buf, n), &d.cols
	j := 0
	for i, t := range d.tBuf {
		if t < int64(since) || t > int64(until) {
			continue
		}
		events[j] = Event{Seq: d.seqBuf[i], T: time.Duration(t), Kind: c.kinds[i],
			Node: pkt.NodeID(c.node[i]), Port: c.port[i], Queue: c.queue[i],
			Flow: pkt.FlowID(c.flow[i]), Pkt: c.pkt[i], Size: c.size[i], Reason: c.reason[i],
			PortBytes: c.pb[i], QueueBytes: c.qb[i], V: c.v[i]}
		j++
	}
	return events, nil
}

// chunkCount reads and validates a chunk header. A clean end of stream
// is io.EOF.
func (d *BinaryReader) chunkCount() (int, error) {
	var count [1]uint64
	err := d.uvarints(count[:], math.MaxUint64)
	if err == io.EOF {
		return 0, io.EOF
	}
	if err != nil {
		return 0, fmt.Errorf("obs: trace chunk header: %w", err)
	}
	if count[0] == 0 || count[0] > maxChunkEvents {
		return 0, fmt.Errorf("obs: corrupt trace chunk (count %d, want 1..%d)",
			count[0], maxChunkEvents)
	}
	return int(count[0]), nil
}

// truncated wraps a mid-chunk EOF into a truncation error.
func (d *BinaryReader) truncated(count int, err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return fmt.Errorf("obs: truncated trace chunk (%d events promised): %w",
			count, io.ErrUnexpectedEOF)
	}
	return err
}

// readSeqT decodes the chunk's Seq and T delta columns into the scratch
// buffers, advancing the cross-chunk delta state.
func (d *BinaryReader) readSeqT(count int) error {
	d.seqBuf, d.tBuf = resize(d.seqBuf, count), resize(d.tBuf, count)
	if err := d.uvarints(d.seqBuf, math.MaxUint64); err != nil {
		return err
	}
	seq := d.prevSeq
	for i, u := range d.seqBuf {
		seq += uint64(unzigzag(u))
		d.seqBuf[i] = seq
	}
	d.prevSeq = seq
	raw := d.rawCol(count)
	if err := d.uvarints(raw, math.MaxUint64); err != nil {
		return err
	}
	t := d.prevT
	for i, u := range raw {
		t += unzigzag(u)
		d.tBuf[i] = t
	}
	d.prevT = t
	return nil
}

// chunkCols is one chunk's body decoded column by column: reader-owned
// scratch, reused across chunks, that every decode path — ReadBinary's
// events, the range skim, the streamed reductions — fills through
// readCols and reads from.
type chunkCols struct {
	kinds []Kind
	bits  []uint16
	// present counts the chunk's events per field bit (indexed by bit
	// position): how many values each field column holds.
	present [numFields]int
	node    []int32
	port    []int32
	queue   []int32
	flow    []uint64
	pkt     []uint64
	size    []int64
	reason  []DropReason
	pb      []int64
	qb      []int64
	v       []float64
}

// readCols decodes the body of a chunk of count events — every column
// after Seq and T — into d.cols: Kind and the field bitmap always, and
// each field column whose bit is in keep; the other field columns are
// parsed without being stored. Stored or not, every value is validated
// the same way (known kinds, bitmaps within the field set, 32-bit ids in
// range, varints within 64 bits), so every reader of the format rejects
// exactly the same input.
func (d *BinaryReader) readCols(count int, keep uint16) error {
	c := &d.cols
	c.kinds = resize(c.kinds, count)
	for i := 0; i < count; {
		b, err := d.take(count - i)
		if err != nil {
			return err
		}
		for _, k := range b {
			if k == 0 || Kind(k) >= numKinds {
				return fmt.Errorf("obs: corrupt trace chunk (unknown kind %d)", k)
			}
			c.kinds[i] = Kind(k)
			i++
		}
	}
	raw := d.rawCol(count)
	if err := d.uvarints(raw, bitsAll); err != nil {
		return err
	}
	// Count each field's values through a histogram of the bitmaps: a
	// chunk holds few distinct bitmaps, so this costs one increment per
	// event instead of one per set bit.
	c.bits = resize(c.bits, count)
	var hist [bitsAll + 1]int
	for i, u := range raw {
		c.bits[i] = uint16(u)
		hist[u]++
	}
	c.present = [numFields]int{}
	for b, n := range &hist {
		for m := b; n > 0 && m != 0; m &= m - 1 {
			c.present[bits.TrailingZeros(uint(m))] += n
		}
	}
	// Field columns in layout order.
	if err := varintCol(d, &c.node, bitNode, keep, maxID32); err != nil {
		return err
	}
	if err := varintCol(d, &c.port, bitPort, keep, maxID32); err != nil {
		return err
	}
	if err := varintCol(d, &c.queue, bitQueue, keep, maxID32); err != nil {
		return err
	}
	if err := varintCol(d, &c.flow, bitFlow, keep, math.MaxUint64); err != nil {
		return err
	}
	if err := varintCol(d, &c.pkt, bitPkt, keep, math.MaxUint64); err != nil {
		return err
	}
	if err := varintCol(d, &c.size, bitSize, keep, math.MaxUint64); err != nil {
		return err
	}
	n := c.present[bits.TrailingZeros16(bitReason)]
	if keep&bitReason == 0 {
		if err := d.skip(n); err != nil {
			return err
		}
	} else {
		vals, err := d.fixedCol(n)
		if err != nil {
			return err
		}
		c.reason = resize(c.reason, count)
		j := 0
		for i, b := range c.bits {
			c.reason[i] = 0
			if b&bitReason != 0 {
				c.reason[i] = DropReason(vals[j])
				j++
			}
		}
	}
	if err := varintCol(d, &c.pb, bitPortBytes, keep, math.MaxUint64); err != nil {
		return err
	}
	if err := varintCol(d, &c.qb, bitQueueBytes, keep, math.MaxUint64); err != nil {
		return err
	}
	n = c.present[bits.TrailingZeros16(bitV)]
	if keep&bitV == 0 {
		return d.skip(8 * n)
	}
	vals, err := d.fixedCol(8 * n)
	if err != nil {
		return err
	}
	c.v = resize(c.v, count)
	j := 0
	for i, b := range c.bits {
		c.v[i] = 0
		if b&bitV != 0 {
			c.v[i] = math.Float64frombits(binary.LittleEndian.Uint64(vals[8*j:]))
			j++
		}
	}
	return nil
}

// maxID32 is the largest zigzag varint of a 32-bit id column: zigzag
// maps exactly the int32 range onto 0..MaxUint32.
const maxID32 = math.MaxUint32

// varintCol decodes the varint field column of bit into *dst — one value
// per event whose bitmap has bit, zero for the others — when bit is in
// keep, rejecting a value above limit. A column that is not kept is
// skipped at wire level, unless its limit must still be checked (the
// 32-bit ids). Signed element types are zigzag varints on the wire,
// uint64 plain ones.
func varintCol[T int32 | int64 | uint64](d *BinaryReader, dst *[]T, bit, keep uint16, limit uint64) error {
	c := &d.cols
	n := c.present[bits.TrailingZeros16(bit)]
	if keep&bit == 0 && limit == math.MaxUint64 {
		return d.skipVarints(n)
	}
	raw := d.rawCol(n)
	if err := d.uvarints(raw, limit); err != nil {
		return err
	}
	if keep&bit == 0 {
		return nil
	}
	var zero T
	zigzag := zero-1 < 0
	col := resize(*dst, len(c.bits))
	*dst = col
	j := 0
	for i, b := range c.bits {
		var v T
		if b&bit != 0 {
			if zigzag {
				v = T(unzigzag(raw[j]))
			} else {
				v = T(raw[j])
			}
			j++
		}
		col[i] = v
	}
	return nil
}

// unzigzag maps a zigzag-encoded varint back to its signed value.
func unzigzag(u uint64) int64 {
	return int64(u>>1) ^ -int64(u&1)
}

// errVarintOverflow is encoding/binary's error for a varint longer than
// 64 bits, whose text the format's readers have always reported.
var errVarintOverflow = errors.New("binary: varint overflows a 64-bit integer")

// fill returns the undecoded window, refilled first when fewer than
// binary.MaxVarintLen64 bytes remain. It is shorter than that only at
// the end of the stream or at a read error, which d.err then holds.
func (d *BinaryReader) fill() []byte {
	if len(d.win)-d.off < binary.MaxVarintLen64 && d.err == nil {
		d.br.Discard(d.off) // cannot fail: the window is buffered
		if _, err := d.br.Peek(binary.MaxVarintLen64); err != nil {
			d.err = err
		}
		d.win, _ = d.br.Peek(d.br.Buffered())
		d.off = 0
	}
	return d.win[d.off:]
}

// ended is the error of a window that ran dry: the reader's own error,
// with an end of stream inside a value (partial) made unexpected — the
// way binary.ReadUvarint and io.ReadFull report it.
func (d *BinaryReader) ended(partial bool) error {
	if partial && d.err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return d.err
}

// uvarints decodes len(dst) unsigned varints into dst, rejecting a value
// above limit (overLimit names it).
func (d *BinaryReader) uvarints(dst []uint64, limit uint64) error {
	for i := 0; i < len(dst); {
		b := d.fill()
		if len(b) < binary.MaxVarintLen64 {
			// The stream's last bytes: one bounds-checked value at a time.
			// (binary.Uvarint reports overflow only from the tenth byte on,
			// so with fewer bytes a zero n is always a cut-short value.)
			v, n := binary.Uvarint(b)
			if n == 0 {
				return d.ended(len(b) > 0)
			}
			if v > limit {
				return overLimit(limit, v)
			}
			dst[i] = v
			i++
			d.off += n
			continue
		}
		j := 0
		for ; i < len(dst) && j <= len(b)-binary.MaxVarintLen64; i++ {
			var v uint64
			if c := b[j]; c < 0x80 {
				v = uint64(c)
				j++
			} else if c1 := b[j+1]; c1 < 0x80 {
				v = uint64(c&0x7f) | uint64(c1)<<7
				j += 2
			} else {
				var n int
				if v, n = binary.Uvarint(b[j : j+binary.MaxVarintLen64]); n <= 0 {
					return errVarintOverflow
				}
				j += n
			}
			if v > limit {
				return overLimit(limit, v)
			}
			dst[i] = v
		}
		d.off += j
	}
	return nil
}

// overLimit is the validation error of a varint above its column's
// limit: a field bitmap with bits outside the field set, or a 32-bit id
// out of range.
func overLimit(limit, v uint64) error {
	if limit == bitsAll {
		return fmt.Errorf("obs: corrupt trace chunk (field bitmap %#x)", v)
	}
	return fmt.Errorf("obs: corrupt trace chunk (32-bit field holds %d)", unzigzag(v))
}

// skipVarints consumes n varints without decoding them: it counts
// terminator bytes (high bit clear), still rejecting a varint longer
// than 64 bits as binary.Uvarint would.
func (d *BinaryReader) skipVarints(n int) error {
	run := 0 // continuation bytes of the varint under the cursor
	for n > 0 {
		b := d.fill()
		if len(b) == 0 {
			return d.ended(run > 0)
		}
		j := 0
		for j < len(b) && n > 0 {
			// Eight bytes at once when the word holds fewer than n
			// terminators and the varint it ends first stays under the
			// overflow length (a word without terminators passes only
			// when it starts a varint, so run becomes 8); one byte at a
			// time otherwise.
			if j+8 <= len(b) {
				t := ^binary.LittleEndian.Uint64(b[j:]) & 0x8080808080808080
				if k := bits.OnesCount64(t); k < n && run+bits.TrailingZeros64(t)/8 < binary.MaxVarintLen64-1 {
					n -= k
					run = bits.LeadingZeros64(t) / 8
					j += 8
					continue
				}
			}
			c := b[j]
			j++
			if c >= 0x80 {
				if run++; run == binary.MaxVarintLen64 {
					return errVarintOverflow
				}
				continue
			}
			if run == binary.MaxVarintLen64-1 && c > 1 {
				return errVarintOverflow
			}
			run = 0
			n--
		}
		d.off += j
	}
	return nil
}

// take consumes and returns the next 1..n bytes of the window.
func (d *BinaryReader) take(n int) ([]byte, error) {
	b := d.fill()
	if len(b) == 0 {
		return nil, d.err
	}
	b = b[:min(n, len(b))]
	d.off += len(b)
	return b, nil
}

// fixedCol reads the next n bytes into reader-owned scratch.
func (d *BinaryReader) fixedCol(n int) ([]byte, error) {
	d.fixed = resize(d.fixed, n)
	for dst := d.fixed; len(dst) > 0; {
		b, err := d.take(len(dst))
		if err != nil {
			return nil, err
		}
		dst = dst[copy(dst, b):]
	}
	return d.fixed, nil
}

// skip consumes the next n bytes.
func (d *BinaryReader) skip(n int) error {
	for n > 0 {
		b, err := d.take(n)
		if err != nil {
			return err
		}
		n -= len(b)
	}
	return nil
}

// rawCol returns the varint staging buffer resized to n.
func (d *BinaryReader) rawCol(n int) []uint64 {
	d.raw = resize(d.raw, n)
	return d.raw
}

// resize returns s with length n, reallocating only when it lacks the
// capacity.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// ReadBinary parses a complete binary trace (as written by WriteBinary
// or a spilling ring) back into events.
func ReadBinary(r io.Reader) ([]Event, error) {
	d, err := NewBinaryReader(r)
	if err != nil {
		return nil, err
	}
	return readAll(d.Next)
}

// ReadBinaryRange parses a binary trace keeping only events with
// since <= T <= until, materializing only those (see
// BinaryReader.NextRange).
func ReadBinaryRange(r io.Reader, since, until time.Duration) ([]Event, error) {
	d, err := NewBinaryReader(r)
	if err != nil {
		return nil, err
	}
	return readAll(func() ([]Event, error) { return d.NextRange(since, until) })
}

// readAll gathers a stream's chunks and joins them with one allocation
// of the exact total (a single chunk is returned as is).
func readAll(next func() ([]Event, error)) ([]Event, error) {
	var chunks [][]Event
	total := 0
	for {
		chunk, err := next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if len(chunk) > 0 {
			chunks = append(chunks, chunk)
			total += len(chunk)
		}
	}
	switch len(chunks) {
	case 0:
		return nil, nil
	case 1:
		return chunks[0], nil
	}
	out := make([]Event, 0, total)
	for i, chunk := range chunks {
		out = append(out, chunk...)
		chunks[i] = nil // let the collector take it while the rest is copied
	}
	return out, nil
}
