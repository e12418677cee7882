package obs

import (
	"io"
	"sort"
	"time"

	"pmsb/internal/pkt"
	"pmsb/internal/stats"
)

// This file is how a stored trace is read back for analysis: the
// reductions that rebuild the figures the paper plots — event counts,
// per-queue depth percentiles and tallies, mark-rate timelines,
// per-flow summaries — computed column by column from the chunk
// encoding, without ever materializing an []Event, and the time-ordered
// merge of several files that pmsbstat -export prints. A materialized
// event costs 80 bytes before the first statistic is touched; at fabric
// scale a full-run trace is gigabytes of events, so the reduction — not
// the decode — must be the resident state. A StreamStats holds only the
// aggregates (one QueueStats per observed queue, one counter per kind,
// one record per flow) plus per-chunk scratch columns, so analyzing a
// trace of any length runs in memory proportional to the topology and
// the flow count, not the run.
//
// Per chunk, the reducer stores exactly the columns its reductions
// read: Seq and T always (their delta chains run across chunks), Kind
// (classifies every event), the field bitmap (locates the value
// columns), Node, Port, Queue, Size and QueueBytes when the per-queue
// reduction is requested, and Flow, Size, Queue and V when the flow
// table is. Every other column is parsed, validated and dropped by the
// one column decoder every reader shares (BinaryReader.readCols).
// stream_test.go folds the decoded events of the same traces
// independently and holds the differential proof.
//
// Because port events carry absolute occupancy (PortBytes/QueueBytes),
// every reconstruction survives ring wraparound: losing the oldest
// events narrows the window, it never skews the values.

// QueueKey identifies one queue of one port in a trace.
type QueueKey struct {
	Node  pkt.NodeID
	Port  int32
	Queue int32
}

// QueueStats is the per-queue reduction of a trace: the occupancy the
// queue's enqueue and dequeue events sampled, and what the queue sent,
// had marked and dropped. The tallies are the port's own counters split
// by queue: summed over a port's queues, TxPackets, Marks and Drops
// equal netsim.Port's TxPackets, MarkedPackets and DropPackets over a
// trace that covers the whole run.
type QueueStats struct {
	// Summary holds QueueBytes sampled at every enqueue and dequeue
	// (empty for a queue whose only events in range were drops).
	stats.Summary
	// TxPackets and TxBytes count the dequeued packets and their wire
	// bytes.
	TxPackets, TxBytes int64
	// Marks counts CE marks; Drops counts packets refused at admission.
	Marks, Drops int64
}

// StreamOptions selects the reductions of a streaming pass.
type StreamOptions struct {
	// Counts tallies events by kind.
	Counts bool
	// Depths reduces every queue's packet events into a QueueStats:
	// QueueBytes over enqueue/dequeue events, and the dequeue, mark and
	// drop tallies. Enabling it decodes the Node, Port, Queue, Size and
	// QueueBytes columns; disabled, they are skipped at wire level.
	Depths bool
	// MarkBin, when non-zero, bins CE marks and dequeues into
	// MarkBin-wide counts. It reads only the Kind and T columns, which
	// every pass decodes anyway, so enabling it costs no extra wire work.
	// Binning by absolute time makes the fold order-insensitive like the
	// other reductions.
	MarkBin time.Duration
	// Flows rebuilds one FlowRecord per flow from the flow-start,
	// flow-finish, alpha, cwnd-cut, retransmit, RTO and mark events.
	// Enabling it decodes the Flow, Size, Queue and V columns.
	//
	// No merge is needed across the files of a sharded run: a flow's
	// transport events all sit on its source host's bus, so they arrive
	// in one file and in order, and marks only add to a count.
	Flows bool
	// Since/Until keep only events with Since <= T <= Until.
	// Until 0 means no upper bound.
	Since, Until time.Duration
}

// StreamStats accumulates the reductions of one or more binary trace
// streams. Create with NewStreamStats, feed each file through Reduce,
// then read the exported aggregates. The zero value is not ready to
// use.
type StreamStats struct {
	// Events counts the in-range events reduced across all streams.
	Events int
	// Kinds is the per-kind tally (nil unless Counts was requested).
	Kinds map[Kind]int
	// Depths is the per-queue reduction (nil unless Depths was
	// requested).
	Depths map[QueueKey]*QueueStats
	// Marks and Dequeues are the mark-rate timeline's two series (nil
	// unless MarkBin was set); their per-bin quotient is the mark
	// fraction.
	Marks, Dequeues *stats.TimeSeries
	// Flows is the per-flow table (nil unless Flows was requested).
	Flows FlowTable
	// MinT and MaxT bound the in-range events' virtual time (both zero
	// while Events is 0).
	MinT, MaxT time.Duration
	// Segments counts the independent simulation runs: an experiment
	// that runs several configurations back to back emits them into one
	// bus, and each new engine restarts virtual time at zero, so a new
	// segment begins wherever time goes backwards within one stream.
	// Runs are counted per Reduce call and the largest count is kept,
	// because each per-shard file of a multi-run experiment holds every
	// run.
	Segments int

	opt      StreamOptions
	keep     uint16 // the field columns the reductions read
	lastT    time.Duration
	fileSegs int // segments of the stream being reduced
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
		st.Depths = make(map[QueueKey]*QueueStats)
		st.keep |= bitNode | bitPort | bitQueue | bitSize | bitQueueBytes
	}
	if opt.MarkBin > 0 {
		st.Marks = stats.NewTimeSeries(opt.MarkBin)
		st.Dequeues = stats.NewTimeSeries(opt.MarkBin)
	}
	if opt.Flows {
		st.Flows = make(FlowTable)
		st.keep |= bitQueue | bitFlow | bitSize | bitV
	}
	return st
}

// Reduce folds one binary trace stream into the accumulator. Several
// calls accumulate (e.g. the per-shard spill files of one run); every
// reduction is independent of the order the files are fed in.
func (st *StreamStats) Reduce(r io.Reader) error {
	d, err := NewBinaryReader(r)
	if err != nil {
		return err
	}
	st.fileSegs = 0
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
		if err := d.readCols(count, st.keep); err != nil {
			return d.truncated(count, err)
		}
		st.fold(d)
	}
}

// fold folds the chunk d just decoded (its T column and the columns
// in st.keep) into the aggregates.
func (st *StreamStats) fold(d *BinaryReader) {
	c := &d.cols
	for i, t := range d.tBuf {
		t := time.Duration(t)
		if t < st.opt.Since || t > st.opt.Until {
			continue
		}
		if st.Events == 0 {
			st.MinT, st.MaxT = t, t
		} else {
			st.MinT, st.MaxT = min(st.MinT, t), max(st.MaxT, t)
		}
		if st.fileSegs == 0 || t < st.lastT {
			st.fileSegs++
			st.Segments = max(st.Segments, st.fileSegs)
		}
		st.lastT = t
		st.Events++
		k := c.kinds[i]
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
		if st.Depths != nil && k <= KindMark {
			// The four packet kinds (enqueue, dequeue, drop, mark) lead
			// the enum; each costs one lookup.
			key := QueueKey{Node: pkt.NodeID(c.node[i]), Port: c.port[i], Queue: c.queue[i]}
			q := st.Depths[key]
			if q == nil {
				q = &QueueStats{}
				st.Depths[key] = q
			}
			switch k {
			case KindEnqueue:
				q.Add(float64(c.qb[i]))
			case KindDequeue:
				q.Add(float64(c.qb[i]))
				q.TxPackets++
				q.TxBytes += c.size[i]
			case KindDrop:
				q.Drops++
			case KindMark:
				q.Marks++
			}
		}
		if st.Flows != nil {
			st.Flows.add(&Event{T: t, Kind: k, Queue: c.queue[i],
				Flow: pkt.FlowID(c.flow[i]), Size: c.size[i], V: c.v[i]})
		}
	}
}

// DepthKeys returns the depth-summary keys sorted by (node, port,
// queue), for deterministic iteration.
func (st *StreamStats) DepthKeys() []QueueKey {
	keys := make([]QueueKey, 0, len(st.Depths))
	for k := range st.Depths {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Node != keys[j].Node {
			return keys[i].Node < keys[j].Node
		}
		if keys[i].Port != keys[j].Port {
			return keys[i].Port < keys[j].Port
		}
		return keys[i].Queue < keys[j].Queue
	})
	return keys
}

// MergeTraces interleaves binary trace streams (e.g. the per-shard
// spill files of one run) into one deterministic timeline and calls fn
// on each event with since <= T <= until, in merged order: by time,
// then by stream index on a tie, and each stream in its own order. A
// single bus's trace is time-ordered, so within one stream that is Seq
// order.
//
// The PDES determinism contract (DESIGN.md section 8) makes each
// shard's per-bus stream byte-identical to the same bus's stream in a
// serial run, so merging the spill files of an N-shard run equals
// merging the N buses of a serial run: the sharded trace is the serial
// trace.
//
// Each stream is decoded one chunk at a time (BinaryReader.NextRange),
// so memory is bounded by the stream count times one chunk, whatever
// the trace length. fn's *Event is valid only during the call.
func MergeTraces(rs []io.Reader, since, until time.Duration, fn func(*Event) error) error {
	type head struct {
		d     *BinaryReader
		chunk []Event
		pos   int
	}
	heads := make([]*head, 0, len(rs))
	for _, r := range rs {
		d, err := NewBinaryReader(r)
		if err != nil {
			return err
		}
		heads = append(heads, &head{d: d})
	}
	// fill advances h to its next in-range event; false once the stream
	// is exhausted.
	fill := func(h *head) (bool, error) {
		for h.pos == len(h.chunk) {
			chunk, err := h.d.NextRange(since, until)
			if err == io.EOF {
				return false, nil
			}
			if err != nil {
				return false, err
			}
			h.chunk, h.pos = chunk, 0
		}
		return true, nil
	}
	live := heads[:0]
	for _, h := range heads {
		ok, err := fill(h)
		if err != nil {
			return err
		}
		if ok {
			live = append(live, h)
		}
	}
	for len(live) > 0 {
		// Strict < keeps the lowest stream index on a time tie (live
		// stays in stream order as exhausted heads drop out).
		best := 0
		for i := 1; i < len(live); i++ {
			if live[i].chunk[live[i].pos].T < live[best].chunk[live[best].pos].T {
				best = i
			}
		}
		h := live[best]
		if err := fn(&h.chunk[h.pos]); err != nil {
			return err
		}
		h.pos++
		ok, err := fill(h)
		if err != nil {
			return err
		}
		if !ok {
			live = append(live[:best], live[best+1:]...)
		}
	}
	return nil
}
