package obs

import (
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"pmsb/internal/pkt"
	"pmsb/internal/stats"
)

// This file is the streaming counterpart of analysis.go for binary
// traces: the event-count, depth-summary and mark-rate reductions
// computed column by column from the chunk encoding, without ever
// materializing an []Event. The materializing path costs 80 bytes per event before the
// first statistic is touched; at fabric scale a full-run trace is
// gigabytes of events, so the reduction — not the decode — must be the
// resident state. A StreamStats holds only the aggregates (one Summary
// per observed queue, one counter per kind) plus per-chunk scratch
// columns, so analyzing a trace of any length runs in memory
// proportional to the topology, not the run.
//
// Per chunk, the reducer decodes exactly the columns its reductions
// read: Seq and T always (their delta chains run across chunks), Kind
// (classifies every event), the field bitmap (locates the value
// columns), and — only when depth summaries are requested — Node,
// Port, Queue and QueueBytes. Every other column is parsed at wire
// level and dropped, exactly like BinaryReader.skipBody. The fold over
// the decoded columns reproduces CountKinds, DepthSummaries and
// MarkSeries sample for sample; stream_test.go holds the differential
// proof.

// StreamOptions selects the reductions of a streaming pass.
type StreamOptions struct {
	// Counts tallies events by kind (the CountKinds reduction).
	Counts bool
	// Depths summarizes QueueBytes per queue over enqueue/dequeue
	// events (the DepthSummaries reduction). Enabling it decodes the
	// Node, Port, Queue and QueueBytes columns; disabled, they are
	// skipped at wire level.
	Depths bool
	// MarkBin, when non-zero, bins CE marks and dequeues into
	// MarkBin-wide counts (the MarkSeries reduction). It reads only the
	// Kind and T columns, which every pass decodes anyway, so enabling
	// it costs no extra wire work. Binning by absolute time makes the
	// fold order-insensitive like the other reductions.
	MarkBin time.Duration
	// Since/Until keep only events with Since <= T <= Until.
	// Until 0 means no upper bound.
	Since, Until time.Duration
}

// StreamStats accumulates the order-insensitive reductions of one or
// more binary trace streams. Create with NewStreamStats, feed each file
// through Reduce, then read the exported aggregates. The zero value is
// not ready to use.
type StreamStats struct {
	// Events counts the in-range events reduced across all streams.
	Events int
	// Kinds is the per-kind tally (nil unless Counts was requested).
	Kinds map[Kind]int
	// Depths is the per-queue occupancy summary (nil unless Depths was
	// requested).
	Depths map[QueueKey]*stats.Summary
	// Marks and Dequeues are the mark-rate timeline's two series (nil
	// unless MarkBin was set); their per-bin quotient is the mark
	// fraction, exactly as MarkSeries produces it.
	Marks, Dequeues *stats.TimeSeries
	// MinT and MaxT bound the in-range events' virtual time (both zero
	// while Events is 0).
	MinT, MaxT time.Duration
	// Segments is the virtual-time segment count over the concatenation
	// of the reduced streams, with Segments()'s semantics: a new segment
	// wherever time goes backwards. Reports over several merged files
	// should use 1 instead — a time-sorted merge never restarts.
	Segments int

	opt   StreamOptions
	lastT time.Duration

	// Per-chunk scratch columns, reused across chunks and streams.
	kinds []Kind
	bits  []uint16
	node  []int32
	port  []int32
	queue []int32
	qb    []int64
}

// NewStreamStats returns an empty accumulator for the given reductions.
func NewStreamStats(opt StreamOptions) *StreamStats {
	if opt.Until == 0 {
		opt.Until = 1<<63 - 1
	}
	st := &StreamStats{opt: opt}
	if opt.Counts {
		st.Kinds = make(map[Kind]int)
	}
	if opt.Depths {
		st.Depths = make(map[QueueKey]*stats.Summary)
	}
	if opt.MarkBin > 0 {
		st.Marks = stats.NewTimeSeries(opt.MarkBin)
		st.Dequeues = stats.NewTimeSeries(opt.MarkBin)
	}
	return st
}

// Reduce folds one binary trace stream into the accumulator. Several
// calls accumulate (e.g. the per-shard spill files of one run); the
// reductions are order-insensitive, so the result matches running the
// materializing analysis over the merged timeline.
func (st *StreamStats) Reduce(r io.Reader) error {
	d, err := NewBinaryReader(r)
	if err != nil {
		return err
	}
	for {
		count, err := d.chunkCount()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := d.readSeqT(count); err != nil {
			return d.truncated(count, err)
		}
		if err := st.reduceChunk(d, count); err != nil {
			return d.truncated(count, err)
		}
	}
}

// reduceChunk decodes one chunk body column-wise into the scratch
// buffers and folds it into the aggregates. d's tBuf already holds the
// chunk's decoded T column.
func (st *StreamStats) reduceChunk(d *BinaryReader, count int) error {
	st.grow(count)
	for i := 0; i < count; i++ {
		k, err := d.br.ReadByte()
		if err != nil {
			return err
		}
		if k == 0 || Kind(k) >= numKinds {
			return fmt.Errorf("obs: corrupt trace chunk (unknown kind %d)", k)
		}
		st.kinds[i] = Kind(k)
	}
	for i := 0; i < count; i++ {
		b, err := binary.ReadUvarint(d.br)
		if err != nil {
			return err
		}
		if b > bitsAll {
			return fmt.Errorf("obs: corrupt trace chunk (field bitmap %#x)", b)
		}
		st.bits[i] = uint16(b)
	}
	// Field columns in layout order: decode the ones the reductions
	// read, parse-and-drop the rest (signed and unsigned varints share
	// the wire shape; reason and v are fixed-width and discard in one
	// step, as in skipBody).
	if st.opt.Depths {
		if err := st.readCol32(d, count, bitNode, st.node); err != nil {
			return err
		}
		if err := st.readCol32(d, count, bitPort, st.port); err != nil {
			return err
		}
		if err := st.readCol32(d, count, bitQueue, st.queue); err != nil {
			return err
		}
	} else {
		for _, bit := range [...]uint16{bitNode, bitPort, bitQueue} {
			if err := st.skipVarints(d, count, bit); err != nil {
				return err
			}
		}
	}
	for _, bit := range [...]uint16{bitFlow, bitPkt, bitSize} {
		if err := st.skipVarints(d, count, bit); err != nil {
			return err
		}
	}
	if _, err := d.br.Discard(st.present(count, bitReason)); err != nil {
		return err
	}
	if err := st.skipVarints(d, count, bitPortBytes); err != nil {
		return err
	}
	if st.opt.Depths {
		if err := st.readCol64(d, count, bitQueueBytes, st.qb); err != nil {
			return err
		}
	} else if err := st.skipVarints(d, count, bitQueueBytes); err != nil {
		return err
	}
	if _, err := d.br.Discard(8 * st.present(count, bitV)); err != nil {
		return err
	}

	for i := 0; i < count; i++ {
		t := time.Duration(d.tBuf[i])
		if t < st.opt.Since || t > st.opt.Until {
			continue
		}
		if st.Events == 0 {
			st.MinT, st.MaxT, st.Segments = t, t, 1
		} else {
			if t < st.MinT {
				st.MinT = t
			}
			if t > st.MaxT {
				st.MaxT = t
			}
			if t < st.lastT {
				st.Segments++
			}
		}
		st.lastT = t
		st.Events++
		k := st.kinds[i]
		if st.Kinds != nil {
			st.Kinds[k]++
		}
		if st.Marks != nil {
			switch k {
			case KindMark:
				st.Marks.Add(t, 1)
			case KindDequeue:
				st.Dequeues.Add(t, 1)
			}
		}
		if st.Depths != nil && (k == KindEnqueue || k == KindDequeue) {
			key := QueueKey{Node: pkt.NodeID(st.node[i]), Port: st.port[i], Queue: st.queue[i]}
			s := st.Depths[key]
			if s == nil {
				s = &stats.Summary{}
				st.Depths[key] = s
			}
			s.Add(float64(st.qb[i]))
		}
	}
	return nil
}

// grow sizes the scratch columns for a chunk of count events.
func (st *StreamStats) grow(count int) {
	if cap(st.kinds) < count {
		st.kinds = make([]Kind, count)
		st.bits = make([]uint16, count)
		st.node = make([]int32, count)
		st.port = make([]int32, count)
		st.queue = make([]int32, count)
		st.qb = make([]int64, count)
	}
	st.kinds = st.kinds[:count]
	st.bits = st.bits[:count]
	st.node = st.node[:count]
	st.port = st.port[:count]
	st.queue = st.queue[:count]
	st.qb = st.qb[:count]
}

// present counts the chunk's events with bit set in their field bitmap.
func (st *StreamStats) present(count int, bit uint16) int {
	n := 0
	for i := 0; i < count; i++ {
		if st.bits[i]&bit != 0 {
			n++
		}
	}
	return n
}

// readCol32 decodes one 32-bit varint column into dst; a clear bit is a
// zero value.
func (st *StreamStats) readCol32(d *BinaryReader, count int, bit uint16, dst []int32) error {
	for i := 0; i < count; i++ {
		if st.bits[i]&bit == 0 {
			dst[i] = 0
			continue
		}
		v, err := d.readInt32()
		if err != nil {
			return err
		}
		dst[i] = v
	}
	return nil
}

// readCol64 decodes one 64-bit varint column into dst; a clear bit is a
// zero value.
func (st *StreamStats) readCol64(d *BinaryReader, count int, bit uint16, dst []int64) error {
	for i := 0; i < count; i++ {
		if st.bits[i]&bit == 0 {
			dst[i] = 0
			continue
		}
		v, err := binary.ReadVarint(d.br)
		if err != nil {
			return err
		}
		dst[i] = v
	}
	return nil
}

// skipVarints parses one varint column without storing it.
func (st *StreamStats) skipVarints(d *BinaryReader, count int, bit uint16) error {
	n := st.present(count, bit)
	for j := 0; j < n; j++ {
		if _, err := binary.ReadUvarint(d.br); err != nil {
			return err
		}
	}
	return nil
}

// DepthKeys returns the depth-summary keys sorted by (node, port,
// queue), matching DepthSummaries' deterministic iteration order.
func (st *StreamStats) DepthKeys() []QueueKey {
	return sortedQueueKeys(st.Depths)
}
