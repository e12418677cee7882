package experiment

import (
	"bytes"
	"testing"
	"time"

	"pmsb/internal/obs"
	"pmsb/internal/topo"
	"pmsb/internal/transport"
)

// spillBus is a bus whose ring spills the whole run into a buffer.
type spillBus struct {
	bus   *obs.Bus
	spill *obs.SpillWriter
	file  bytes.Buffer
}

func newSpillBus() *spillBus {
	b := &spillBus{bus: obs.NewTraceBus(1 << 12)}
	b.spill = obs.NewSpillWriter(&b.file, obs.FormatBinary)
	b.bus.Ring().SetSpill(b.spill)
	return b
}

// reduceTraces drains the buses and reduces their traces as pmsbstat
// reads a sharded run's files: one StreamStats, one Reduce per file.
func reduceTraces(t *testing.T, buses []*spillBus) *obs.StreamStats {
	t.Helper()
	st := obs.NewStreamStats(obs.StreamOptions{Counts: true, Depths: true})
	for _, b := range buses {
		if err := b.bus.Ring().FlushSpill(); err != nil {
			t.Fatal(err)
		}
		if err := b.spill.Close(); err != nil {
			t.Fatal(err)
		}
		if err := st.Reduce(bytes.NewReader(b.file.Bytes())); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// assertTalliesMatchPorts holds the trace's per-queue tallies to the
// ports' own counters: summed over a port's queues, the dequeues, marks
// and drops equal the port's TxPackets, MarkedPackets and DropPackets,
// and summed over every queue they equal the trace's kind counts.
func assertTalliesMatchPorts(t *testing.T, fab *topo.Fabric, st *obs.StreamStats) {
	t.Helper()
	type tally struct{ tx, marks, drops int64 }
	traced := map[obs.PortID]tally{}
	var all tally
	for k, q := range st.Depths {
		id := obs.PortID{Node: k.Node, Port: k.Port}
		sum := traced[id]
		sum.tx += q.TxPackets
		sum.marks += q.Marks
		sum.drops += q.Drops
		traced[id] = sum
		all.tx += q.TxPackets
		all.marks += q.Marks
		all.drops += q.Drops
	}
	ports := 0
	for _, sw := range fab.Switches {
		for i := 0; i < sw.NumPorts(); i++ {
			p := sw.Port(i)
			want := tally{p.TxPackets(), p.MarkedPackets(), p.DropPackets()}
			id := obs.PortID{Node: sw.NodeID(), Port: int32(i)}
			if got := traced[id]; got != want {
				t.Errorf("port %d/%d: trace tallies %+v, port counters %+v", id.Node, id.Port, got, want)
			}
			if want.tx > 0 {
				ports++
			}
			delete(traced, id)
		}
	}
	for id, got := range traced {
		t.Errorf("trace holds port %d/%d (%+v), which no switch has", id.Node, id.Port, got)
	}
	kinds := tally{int64(st.Kinds[obs.KindDequeue]), int64(st.Kinds[obs.KindMark]), int64(st.Kinds[obs.KindDrop])}
	if all != kinds {
		t.Errorf("tallies summed over queues %+v, kind counts %+v", all, kinds)
	}
	if ports == 0 || all.tx == 0 {
		t.Fatal("no port sent a packet: nothing was cross-checked")
	}
}

// A traced fig8 -quick: the per-queue tallies pmsbstat prints are the
// bottleneck's own counters split by queue.
func TestTraceTalliesMatchPortsFig8(t *testing.T) {
	b := newSpillBus()
	opt := quick
	opt.Obs = []*obs.Bus{b.bus}
	r, err := runStatic(fairnessConfig(opt, 4, topo.DWRRSched))
	if err != nil {
		t.Fatal(err)
	}
	st := reduceTraces(t, []*spillBus{b})
	assertTalliesMatchPorts(t, r.fab, st)
	// The bottleneck's two queues carry every mark PMSB made.
	q0 := st.Depths[obs.QueueKey{Node: r.fab.Switches[0].NodeID(), Port: 0, Queue: 0}]
	q1 := st.Depths[obs.QueueKey{Node: r.fab.Switches[0].NodeID(), Port: 0, Queue: 1}]
	if q0 == nil || q1 == nil || q0.Marks+q1.Marks != r.bottleneck.MarkedPackets() || q0.Marks == 0 || q1.Marks == 0 {
		t.Fatalf("bottleneck queues %+v %+v: marks do not split the port's %d", q0, q1, r.bottleneck.MarkedPackets())
	}
}

// fattree -quick -shards 2: each shard's bus sees only its own ports,
// and the tallies summed over both shard traces equal the ports' totals.
func TestTraceTalliesMatchPortsShardedFatTree(t *testing.T) {
	buses := []*spillBus{newSpillBus(), newSpillBus()}
	opt := quick
	opt.Shards = len(buses)
	opt.Obs = []*obs.Bus{buses[0].bus, buses[1].bus}
	w := fatTreeWiring(fattreeConfig(fattreeK))
	fab, err := opt.runPacket(w, func(fab *topo.Fabric) time.Duration {
		opt.startFlows(fab, fattreeCrossPod(fattreeK, 32), fattreeServices, nil, func(int, *transport.Sender) {})
		return fattreeDeadline
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := opt.width(w); got != 2 {
		t.Fatalf("fat-tree ran on %d shards, want 2", got)
	}
	for i, b := range buses {
		if b.bus.Ring().Total() == 0 {
			t.Fatalf("shard %d's bus recorded nothing", i)
		}
	}
	assertTalliesMatchPorts(t, fab, reduceTraces(t, buses))
}

// A traced run wider than its bus list would feed two shard engines
// into one unsynchronized bus: runPacket refuses it before building the
// fabric, and so does RunMany for a fat-tree experiment at -shards 2.
func TestTracedRunWiderThanBusesRefused(t *testing.T) {
	opt := quick
	opt.Shards = 2
	opt.Obs = []*obs.Bus{obs.NewTraceBus(16)}
	_, err := opt.runPacket(fatTreeWiring(fattreeConfig(fattreeK)), func(*topo.Fabric) time.Duration {
		t.Fatal("the fabric was built")
		return 0
	})
	if err == nil {
		t.Fatal("a 2-shard run traced on 1 bus was not refused")
	}
	spec, err := Lookup("fattree")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := RunMany([]Spec{spec}, opt, 2); err == nil {
		t.Fatal("RunMany ran fattree on 2 shards with 1 bus")
	}
}
