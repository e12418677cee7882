package sim

import (
	"fmt"
	"reflect"
	"testing"
	"time"
)

// parConfigs enumerates the coordinator configurations every
// serial-equivalence test must hold under.
var parConfigs = []struct {
	name string
	mode ParMode
}{
	{"global", ParGlobal},
	{"channel", ParChannel},
}

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
// ring link a boundary, under the given protocol configuration.
func runShardedRing(n, tokens, hops int, linkDelay, localStep time.Duration, deadline time.Duration, mode ParMode) ([][]relayRec, *Coordinator) {
	coord := NewCoordinator()
	coord.SetMode(mode)
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
// under every protocol configuration, and the total event count must be
// conserved.
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
	for _, cfg := range parConfigs {
		t.Run(cfg.name, func(t *testing.T) {
			sharded, coord := runShardedRing(n, tokens, hops, linkDelay, localStep, deadline, cfg.mode)
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
}

func trunc(r []relayRec) []relayRec {
	if len(r) > 8 {
		return r[:8]
	}
	return r
}

// Two identical sharded runs must be identical to each other
// (goroutine scheduling must not leak into results), under every
// protocol configuration.
func TestCoordinatorDeterministic(t *testing.T) {
	const deadline = 5 * time.Millisecond
	for _, cfg := range parConfigs {
		t.Run(cfg.name, func(t *testing.T) {
			a, ca := runShardedRing(5, 5, 120, 11*time.Microsecond, 2*time.Microsecond, deadline, cfg.mode)
			b, cb := runShardedRing(5, 5, 120, 11*time.Microsecond, 2*time.Microsecond, deadline, cfg.mode)
			if !reflect.DeepEqual(a, b) {
				t.Fatal("two identical sharded runs diverged")
			}
			if ca.Processed() != cb.Processed() {
				t.Fatalf("processed counts diverged: %d vs %d", ca.Processed(), cb.Processed())
			}
		})
	}
}

// The two protocols must agree with each other, not just each with
// serial: -par changes wall time only, at any fixed shard count.
func TestCoordinatorModesAgree(t *testing.T) {
	const deadline = 5 * time.Millisecond
	global, cg := runShardedRing(5, 5, 150, 9*time.Microsecond, 2*time.Microsecond, deadline, ParGlobal)
	channel, cc := runShardedRing(5, 5, 150, 9*time.Microsecond, 2*time.Microsecond, deadline, ParChannel)
	if !reflect.DeepEqual(global, channel) {
		t.Fatal("global and channel protocols diverged")
	}
	if cg.Processed() != cc.Processed() {
		t.Fatalf("processed counts diverged: global %d, channel %d", cg.Processed(), cc.Processed())
	}
}

// A ping-pong between two shards exercises the minimal grant cycle:
// exactly one shard active per window.
func TestCoordinatorPingPongMatchesSerial(t *testing.T) {
	serial := runSerialRing(2, 1, 500, 5*time.Microsecond, time.Microsecond, 20*time.Millisecond)
	for _, cfg := range parConfigs {
		t.Run(cfg.name, func(t *testing.T) {
			sharded, _ := runShardedRing(2, 1, 500, 5*time.Microsecond, time.Microsecond, 20*time.Millisecond, cfg.mode)
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
	sharded, coord := runShardedRing(n, 1, hops, linkDelay, localStep, deadline, ParChannel)
	if !reflect.DeepEqual(serial, sharded) {
		t.Fatal("skewed sharded log diverges from serial")
	}
	if coord.Processed() == 0 {
		t.Fatal("sharded run processed no events")
	}
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
	if coord.Lookahead() != 3*time.Microsecond {
		t.Fatalf("lookahead = %v, want 3us", coord.Lookahead())
	}
	coord.Boundary(b, a, 2*time.Microsecond)
	if coord.Lookahead() != 2*time.Microsecond {
		t.Fatalf("lookahead must fold to the minimum delay, got %v", coord.Lookahead())
	}
}

// The coordinator's configuration freezes at the first RunUntil:
// registering a boundary (or a shard, or flipping the protocol)
// afterwards must panic instead of silently invalidating the channel
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
		"SetMode":  func() { coord.SetMode(ParGlobal) },
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
	if coord.Lookahead() != 5*time.Microsecond {
		t.Errorf("global lookahead = %v, want 5us", coord.Lookahead())
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

func TestParseParMode(t *testing.T) {
	cases := []struct {
		in   string
		mode ParMode
		err  bool
	}{
		{"channel", ParChannel, false},
		{"global", ParGlobal, false},
		{"", 0, true},
		{"speculative", 0, true},
	}
	for _, c := range cases {
		mode, err := ParseParMode(c.in)
		if (err != nil) != c.err {
			t.Errorf("ParseParMode(%q) err = %v, want err=%v", c.in, err, c.err)
			continue
		}
		if err == nil && mode != c.mode {
			t.Errorf("ParseParMode(%q) = %v, want %v", c.in, mode, c.mode)
		}
	}
	if ParChannel.String() != "channel" || ParGlobal.String() != "global" {
		t.Error("ParMode.String does not round-trip the flag spelling")
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
