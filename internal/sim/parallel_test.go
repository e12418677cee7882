package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// protocol names the coordinator's window protocol as
// CoordinatorStats.Mode reports it. The serial-equivalence and
// runtime-stats tests run their checks in a subtest of that name.
const protocol = "channel"

// relayRec is one observed delivery at a node: when it ran and which
// hop count it carried.
type relayRec struct {
	At  time.Duration
	Hop int
}

// runSerialRing simulates nodes 0..n-1 on one engine: node i receives a
// token, records it, does workSteps local events of localStep each, and
// forwards the token to node (i+1)%n after linkDelay. tokens tokens
// start at distinct nodes at t=0; the run stops at deadline. Returns
// the per-node delivery logs.
func runSerialRing(n, tokens, hops int, linkDelay, localStep time.Duration, deadline time.Duration) [][]relayRec {
	eng := NewEngine()
	logs := make([][]relayRec, n)
	var deliver func(node, hop int)
	deliver = func(node, hop int) {
		logs[node] = append(logs[node], relayRec{At: eng.Now(), Hop: hop})
		if hop >= hops {
			return
		}
		// Local busywork: a chain of events before the forward, so the
		// forward's send time depends on local scheduling.
		next := (node + 1) % n
		eng.Schedule(localStep, func() {
			eng.Schedule(localStep, func() {
				eng.ScheduleCall(linkDelay, func(any) { deliver(next, hop+1) }, nil)
			})
		})
	}
	for t := 0; t < tokens; t++ {
		start := t * (n / tokens)
		t := t
		eng.ScheduleAt(0, func() { deliver(start%n, t) })
	}
	eng.RunUntil(deadline)
	return logs
}

// runShardedRing is the same workload with one shard per node and every
// ring link a boundary.
func runShardedRing(n, tokens, hops int, linkDelay, localStep time.Duration, deadline time.Duration) ([][]relayRec, *Coordinator) {
	coord := NewCoordinator()
	shards := make([]*Shard, n)
	for i := range shards {
		shards[i] = coord.NewShard()
	}
	bounds := make([]*Boundary, n)
	for i := range bounds {
		bounds[i] = coord.Boundary(shards[i], shards[(i+1)%n], linkDelay)
	}
	logs := make([][]relayRec, n)
	var deliver func(node, hop int)
	deliver = func(node, hop int) {
		eng := shards[node].Engine()
		logs[node] = append(logs[node], relayRec{At: eng.Now(), Hop: hop})
		if hop >= hops {
			return
		}
		next := (node + 1) % n
		eng.Schedule(localStep, func() {
			eng.Schedule(localStep, func() {
				bounds[node].Send(func(any) { deliver(next, hop+1) }, nil)
			})
		})
	}
	for t := 0; t < tokens; t++ {
		start := (t * (n / tokens)) % n
		t := t
		shards[start].Engine().ScheduleAt(0, func() { deliver(start, t) })
	}
	coord.RunUntil(deadline)
	return logs, coord
}

// A multi-token relay ring must produce byte-identical per-node
// delivery logs whether it runs on one engine or on one shard per node,
// and the total event count must be conserved.
func TestCoordinatorRingMatchesSerial(t *testing.T) {
	const (
		n         = 4
		tokens    = 4
		hops      = 200
		linkDelay = 7 * time.Microsecond
		localStep = 3 * time.Microsecond
		deadline  = 10 * time.Millisecond
	)
	serial := runSerialRing(n, tokens, hops, linkDelay, localStep, deadline)
	t.Run(protocol, func(t *testing.T) {
		sharded, coord := runShardedRing(n, tokens, hops, linkDelay, localStep, deadline)
		for i := range serial {
			if !reflect.DeepEqual(serial[i], sharded[i]) {
				t.Fatalf("node %d: sharded log diverges from serial\nserial:  %v\nsharded: %v",
					i, trunc(serial[i]), trunc(sharded[i]))
			}
		}
		if coord.Processed() == 0 {
			t.Fatal("sharded run processed no events")
		}
	})
}

func trunc(r []relayRec) []relayRec {
	if len(r) > 8 {
		return r[:8]
	}
	return r
}

// Two identical sharded runs must be identical to each other
// (goroutine scheduling must not leak into results).
func TestCoordinatorDeterministic(t *testing.T) {
	const deadline = 5 * time.Millisecond
	t.Run(protocol, func(t *testing.T) {
		a, ca := runShardedRing(5, 5, 120, 11*time.Microsecond, 2*time.Microsecond, deadline)
		b, cb := runShardedRing(5, 5, 120, 11*time.Microsecond, 2*time.Microsecond, deadline)
		if !reflect.DeepEqual(a, b) {
			t.Fatal("two identical sharded runs diverged")
		}
		if ca.Processed() != cb.Processed() {
			t.Fatalf("processed counts diverged: %d vs %d", ca.Processed(), cb.Processed())
		}
	})
}

// A ping-pong between two shards exercises the minimal grant cycle:
// exactly one shard active per window.
func TestCoordinatorPingPongMatchesSerial(t *testing.T) {
	serial := runSerialRing(2, 1, 500, 5*time.Microsecond, time.Microsecond, 20*time.Millisecond)
	t.Run(protocol, func(t *testing.T) {
		sharded, _ := runShardedRing(2, 1, 500, 5*time.Microsecond, time.Microsecond, 20*time.Millisecond)
		if !reflect.DeepEqual(serial, sharded) {
			t.Fatal("ping-pong sharded log diverges from serial")
		}
		// The token must actually have bounced to the end.
		last := sharded[0][len(sharded[0])-1]
		if last.Hop < 498 {
			t.Fatalf("token stalled at hop %d", last.Hop)
		}
	})
}

// A skewed ring — all tokens start on one node, and only that node does
// local busywork — concentrates nearly all events on one shard, so five
// of six workers sit idle while null advances carry the clocks past
// them. The channel protocol must still match serial exactly.
func TestCoordinatorSkewedLoad(t *testing.T) {
	const (
		n         = 6
		hops      = 150
		linkDelay = 5 * time.Microsecond
		localStep = 2 * time.Microsecond
		deadline  = 10 * time.Millisecond
	)
	// One token on a six-shard ring: at any instant exactly one shard
	// has work, the other five idle — the maximal skew.
	serial := runSerialRing(n, 1, hops, linkDelay, localStep, deadline)
	sharded, coord := runShardedRing(n, 1, hops, linkDelay, localStep, deadline)
	if !reflect.DeepEqual(serial, sharded) {
		t.Fatal("skewed sharded log diverges from serial")
	}
	if coord.Processed() == 0 {
		t.Fatal("sharded run processed no events")
	}
}

// randomGraph is one seeded shard graph for the randomized coordinator
// test: shards nodes, one per shard, directed cut edges, and a local
// work step per node. Every delay is distinct from every other — cut
// delays and local steps alike — which is the tie-free case of the
// serial-equivalence argument: no two channels into a shard share a
// delay, and no local step equals a cut delay.
type randomGraph struct {
	shards int
	edges  []randomEdge
	out    [][]int // out[s] indexes edges leaving shard s
	step   []time.Duration
	chain  []int // local steps a delivery runs before forwarding, per shard
	starts []int // shard each token starts on
}

type randomEdge struct {
	from, to int
	delay    time.Duration
}

// newRandomGraph draws 2–8 shards joined by a random directed cycle (so
// every token always has somewhere to go) plus random extra cut edges,
// some of them parallel to an existing pair.
func newRandomGraph(rng *rand.Rand) randomGraph {
	g := randomGraph{shards: 2 + rng.Intn(7)}
	used := make(map[time.Duration]bool)
	distinct := func() time.Duration {
		for {
			d := 500*time.Nanosecond + time.Duration(rng.Int63n(int64(20*time.Microsecond)))
			if !used[d] {
				used[d] = true
				return d
			}
		}
	}
	g.out = make([][]int, g.shards)
	addEdge := func(from, to int) {
		g.out[from] = append(g.out[from], len(g.edges))
		g.edges = append(g.edges, randomEdge{from, to, distinct()})
	}
	perm := rng.Perm(g.shards)
	for i, s := range perm {
		addEdge(s, perm[(i+1)%g.shards])
	}
	for extra := rng.Intn(2 * g.shards); extra > 0; extra-- {
		from, to := rng.Intn(g.shards), rng.Intn(g.shards-1)
		if to >= from {
			to++
		}
		addEdge(from, to)
	}
	for s := 0; s < g.shards; s++ {
		g.step = append(g.step, distinct())
		g.chain = append(g.chain, 1+rng.Intn(4))
	}
	for tok := 1 + rng.Intn(2*g.shards); tok > 0; tok-- {
		g.starts = append(g.starts, rng.Intn(g.shards))
	}
	return g
}

// tokenRec is one delivery observed at a node.
type tokenRec struct {
	At         time.Duration
	Token, Hop int
}

// run simulates the graph's token workload: a delivery at node s logs
// itself, runs chain[s] local steps of step[s] each, then forwards the
// token along one of s's out-edges, picked by token and hop. With a
// coordinator every node is a shard and every edge a boundary; without
// one, the whole graph runs on a single engine with edges as plain
// delayed schedules. Returns the per-node logs and the event count.
func (g randomGraph) run(sharded bool, deadline time.Duration) ([][]tokenRec, uint64) {
	engs := make([]*Engine, g.shards)
	send := make([]func(fn func(any)), len(g.edges))
	var coord *Coordinator
	if sharded {
		coord = NewCoordinator()
		shards := make([]*Shard, g.shards)
		for i := range shards {
			shards[i] = coord.NewShard()
			engs[i] = shards[i].Engine()
		}
		for i, e := range g.edges {
			b := coord.Boundary(shards[e.from], shards[e.to], e.delay)
			send[i] = func(fn func(any)) { b.Send(fn, nil) }
		}
	} else {
		eng := NewEngine()
		for i := range engs {
			engs[i] = eng
		}
		for i, e := range g.edges {
			delay := e.delay
			send[i] = func(fn func(any)) { eng.ScheduleCall(delay, fn, nil) }
		}
	}
	logs := make([][]tokenRec, g.shards)
	var deliver func(node, token, hop int)
	deliver = func(node, token, hop int) {
		eng := engs[node]
		logs[node] = append(logs[node], tokenRec{At: eng.Now(), Token: token, Hop: hop})
		out := g.out[node]
		edge := out[(token*31+hop*17)%len(out)]
		var work func(left int)
		work = func(left int) {
			if left == 0 {
				to := g.edges[edge].to
				send[edge](func(any) { deliver(to, token, hop+1) })
				return
			}
			eng.Schedule(g.step[node], func() { work(left - 1) })
		}
		work(g.chain[node])
	}
	for tok, s := range g.starts {
		engs[s].ScheduleAt(0, func() { deliver(s, tok, 0) })
	}
	if coord != nil {
		coord.RunUntil(deadline)
		return logs, coord.Processed()
	}
	engs[0].RunUntil(deadline)
	return logs, engs[0].Processed()
}

// Randomized partitions: on seeded random shard graphs — 2–8 shards,
// random directed cut edges with positive delays, random local work
// chains — the coordinated per-node logs and event count must equal
// the serial run's. The ring tests fix one cycle; these graphs vary
// fan-in, fan-out, parallel cut links, channel delays and per-shard
// load, all within the tie-free case the key is exact for.
func TestCoordinatorRandomPartitionsMatchSerial(t *testing.T) {
	const (
		graphs   = 60
		deadline = 2 * time.Millisecond
	)
	for seed := int64(1); seed <= graphs; seed++ {
		g := newRandomGraph(rand.New(rand.NewSource(seed)))
		serial, serialEvents := g.run(false, deadline)
		sharded, shardedEvents := g.run(true, deadline)
		deliveries := 0
		for node := range serial {
			deliveries += len(serial[node])
			if !reflect.DeepEqual(serial[node], sharded[node]) {
				t.Fatalf("seed %d (%d shards, %d edges): node %d log diverges from serial\nserial:  %v\nsharded: %v",
					seed, g.shards, len(g.edges), node, truncTok(serial[node]), truncTok(sharded[node]))
			}
		}
		if deliveries <= len(g.starts) {
			t.Fatalf("seed %d: %d deliveries for %d tokens — no token was forwarded", seed, deliveries, len(g.starts))
		}
		if serialEvents != shardedEvents {
			t.Fatalf("seed %d: processed %d events sharded, %d serial", seed, shardedEvents, serialEvents)
		}
	}
}

func truncTok(r []tokenRec) []tokenRec {
	if len(r) > 8 {
		return r[:8]
	}
	return r
}

// A coordinator with one shard must behave exactly like that shard's
// engine run serially.
func TestCoordinatorSingleShardDegenerate(t *testing.T) {
	coord := NewCoordinator()
	s := coord.NewShard()
	var fired []time.Duration
	for _, at := range []time.Duration{3, 1, 2, 2, 5} {
		at := at * time.Microsecond
		s.Engine().ScheduleAt(at, func() { fired = append(fired, s.Engine().Now()) })
	}
	coord.RunUntil(4 * time.Microsecond)
	want := []time.Duration{1 * time.Microsecond, 2 * time.Microsecond, 2 * time.Microsecond, 3 * time.Microsecond}
	if !reflect.DeepEqual(fired, want) {
		t.Fatalf("single-shard run fired %v, want %v", fired, want)
	}
	if now := s.Engine().Now(); now != 4*time.Microsecond {
		t.Fatalf("clock at %v, want deadline 4us", now)
	}
}

// Shards with no boundaries are independent simulations; RunUntil must
// still drive all of them to the deadline.
func TestCoordinatorNoBoundaries(t *testing.T) {
	coord := NewCoordinator()
	var total int
	for i := 0; i < 3; i++ {
		s := coord.NewShard()
		for j := 0; j < 4; j++ {
			s.Engine().Schedule(time.Duration(j)*time.Microsecond, func() { total++ })
		}
	}
	coord.RunUntil(time.Millisecond)
	if total != 12 {
		t.Fatalf("processed %d events, want 12", total)
	}
	if coord.Processed() != 12 {
		t.Fatalf("Processed() = %d, want 12", coord.Processed())
	}
}

// Boundary registration must reject configurations that break the
// conservative protocol.
func TestBoundaryValidation(t *testing.T) {
	coord := NewCoordinator()
	a, b := coord.NewShard(), coord.NewShard()
	other := NewCoordinator().NewShard()
	for name, fn := range map[string]func(){
		"same shard":    func() { coord.Boundary(a, a, time.Microsecond) },
		"zero delay":    func() { coord.Boundary(a, b, 0) },
		"foreign shard": func() { coord.Boundary(a, other, time.Microsecond) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
	if coord.Boundary(a, b, 3*time.Microsecond).Delay() != 3*time.Microsecond {
		t.Fatal("boundary delay mangled")
	}
}

// Boundaries fold into one channel per directed shard pair carrying the
// pair's minimum delay: several cut links on one pair keep the fastest,
// the reverse direction is independent, and only pairs with a link get
// a channel.
func TestBoundaryFoldsChannelDelays(t *testing.T) {
	coord := NewCoordinator()
	a, b, c := coord.NewShard(), coord.NewShard(), coord.NewShard()
	coord.Boundary(a, b, 5*time.Microsecond)
	coord.Boundary(a, b, 2*time.Microsecond)
	coord.Boundary(a, b, 3*time.Microsecond)
	coord.Boundary(b, a, 9*time.Microsecond)
	coord.Boundary(b, c, 4*time.Microsecond)
	want := map[[2]int]time.Duration{
		{0, 1}: 2 * time.Microsecond, // min of 5, 2 and 3us
		{1, 0}: 9 * time.Microsecond,
		{1, 2}: 4 * time.Microsecond,
	}
	if !reflect.DeepEqual(coord.chanDelay, want) {
		t.Fatalf("channel delays %v, want %v", coord.chanDelay, want)
	}
	coord.buildChannels()
	wantIn := [][]inChan{
		{{src: 1, delay: 9 * time.Microsecond}},
		{{src: 0, delay: 2 * time.Microsecond}},
		{{src: 1, delay: 4 * time.Microsecond}},
	}
	if !reflect.DeepEqual(coord.in, wantIn) {
		t.Fatalf("incoming channels %v, want %v", coord.in, wantIn)
	}
}

// SetMode accepts the one protocol and refuses anything else.
func TestSetModeOnlyChannel(t *testing.T) {
	coord := NewCoordinator()
	coord.SetMode(ParChannel)
	defer func() {
		if recover() == nil {
			t.Error("SetMode(1): expected panic")
		}
	}()
	coord.SetMode(1)
}

// The coordinator's configuration freezes at the first RunUntil:
// registering a boundary (or a shard) afterwards must panic instead of silently invalidating the channel
// clocks already used to admit executed windows — even between runs.
func TestConfigFrozenAfterRun(t *testing.T) {
	coord := NewCoordinator()
	a, b := coord.NewShard(), coord.NewShard()
	coord.Boundary(a, b, time.Microsecond)
	coord.Boundary(b, a, time.Microsecond)
	a.Engine().Schedule(0, func() {})
	coord.RunUntil(time.Millisecond)

	for name, fn := range map[string]func(){
		"Boundary": func() { coord.Boundary(b, a, 5*time.Microsecond) },
		"NewShard": func() { coord.NewShard() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s after RunUntil: expected panic", name)
				}
			}()
			fn()
		}()
	}
	// A second run with the frozen configuration must still work.
	b.Engine().ScheduleAt(2*time.Millisecond, func() {})
	coord.RunUntil(3 * time.Millisecond)
}

// TestChannelClockRelaxation pins the null-advance arithmetic on a
// three-shard cycle A->B->C->A: an idle shard (B) must relay its
// neighbor's bound plus the channel delay, and each shard's grant must
// be its own incoming clock — not the global minimum cut delay.
func TestChannelClockRelaxation(t *testing.T) {
	coord := NewCoordinator()
	a, b, c := coord.NewShard(), coord.NewShard(), coord.NewShard()
	coord.Boundary(a, b, 5*time.Microsecond)
	coord.Boundary(b, c, 7*time.Microsecond)
	coord.Boundary(c, a, 50*time.Microsecond)
	coord.buildChannels()

	a.hasNext, a.nextAt = true, 10*time.Microsecond
	b.hasNext = false
	c.hasNext, c.nextAt = true, 100*time.Microsecond
	coord.relaxClocks()

	if a.lb != 10*time.Microsecond {
		t.Errorf("lb(A) = %v, want 10us", a.lb)
	}
	if b.lb != 15*time.Microsecond {
		t.Errorf("lb(B) = %v, want 15us (null advance through idle B)", b.lb)
	}
	if c.lb != 22*time.Microsecond {
		t.Errorf("lb(C) = %v, want 22us (folded against local 100us)", c.lb)
	}
	// Grants: each shard bounded by its own incoming channel, not the
	// 5us global lookahead.
	if g := coord.grantFor(b); g != 15*time.Microsecond {
		t.Errorf("grant(B) = %v, want 15us", g)
	}
	if g := coord.grantFor(c); g != 22*time.Microsecond {
		t.Errorf("grant(C) = %v, want 22us", g)
	}
	if g := coord.grantFor(a); g != 72*time.Microsecond {
		t.Errorf("grant(A) = %v, want 72us — 14x the global lookahead window", g)
	}
}

// A frozen (running) shard must contribute its window start, not a
// relaxed value, and must not be relaxed itself.
func TestChannelClockFrozenWhileRunning(t *testing.T) {
	coord := NewCoordinator()
	a, b := coord.NewShard(), coord.NewShard()
	coord.Boundary(a, b, 5*time.Microsecond)
	coord.Boundary(b, a, 5*time.Microsecond)
	coord.buildChannels()

	a.running, a.lb = true, 20*time.Microsecond // window started at 20us
	b.hasNext, b.nextAt = true, 100*time.Microsecond
	coord.relaxClocks()
	if a.lb != 20*time.Microsecond {
		t.Errorf("running shard's lb relaxed to %v, want frozen 20us", a.lb)
	}
	if b.lb != 25*time.Microsecond {
		t.Errorf("lb(B) = %v, want 25us (frozen A bound + delay)", b.lb)
	}
	if g := coord.grantFor(b); g != 25*time.Microsecond {
		t.Errorf("grant(B) = %v, want 25us", g)
	}
}

// The extended event key must not disturb serial ordering: for any mix
// of same-time schedules, a serial engine orders by insertion sequence
// exactly as before the (schedAt, lane) extension.
func TestSerialOrderUnchangedByExtendedKey(t *testing.T) {
	eng := NewEngine()
	var order []string
	for i := 0; i < 10; i++ {
		i := i
		eng.ScheduleAt(5*time.Microsecond, func() { order = append(order, fmt.Sprintf("a%d", i)) })
	}
	eng.Schedule(time.Microsecond, func() {
		for i := 0; i < 10; i++ {
			i := i
			eng.ScheduleAt(5*time.Microsecond, func() { order = append(order, fmt.Sprintf("b%d", i)) })
		}
	})
	eng.Run()
	want := []string{"a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7", "a8", "a9",
		"b0", "b1", "b2", "b3", "b4", "b5", "b6", "b7", "b8", "b9"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("serial same-time order changed: %v", order)
	}
}
