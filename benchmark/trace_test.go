package main

import (
	"testing"
	"time"

	"pmsb/internal/ecn"
	"pmsb/internal/sched"
	"pmsb/internal/sim"
	"pmsb/internal/topo"
)

// exactLayer are the counters every variant of a rep reads from the
// layers' own accessors; tracing must not move any of them.
var exactLayer = []string{
	"sim.events", "netsim.enqueues", "netsim.tx_pkts", "netsim.drops", "netsim.marks",
	"transport.flows_finished", "transport.retransmits", "transport.marks_seen",
	"transport.marks_accepted", "transport.fct_samples", "transport.fct_p50_us",
}

// sameOutcome fails unless a and b simulated the same thing: per-flow
// FCTs and port counters (the digest), event count and every exact
// counter.
func sameOutcome(t *testing.T, what string, a, b *repResult) {
	t.Helper()
	if a.Digest != b.Digest || a.Events != b.Events || a.FCTMeanUs != b.FCTMeanUs || a.FCTP95Us != b.FCTP95Us {
		t.Errorf("%s: outcome differs: digest %s vs %s, events %d vs %d, FCT mean %v vs %v, p95 %v vs %v",
			what, a.Digest, b.Digest, a.Events, b.Events, a.FCTMeanUs, b.FCTMeanUs, a.FCTP95Us, b.FCTP95Us)
	}
	for _, name := range exactLayer {
		if a.Layer[name] != b.Layer[name] {
			t.Errorf("%s: %s differs: %v vs %v", what, name, a.Layer[name], b.Layer[name])
		}
	}
	if a.Finished != a.Units {
		t.Errorf("%s: %d of %d flows finished", what, a.Finished, a.Units)
	}
}

func rep(t *testing.T, variant string, run workloadRun) *repEnv {
	t.Helper()
	e, err := execRep(repConfig{Workload: "test", Variant: variant, Seed: 3, Scale: 0.02}, run)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// mqecnProfile is DWRR + MQ-ECN: the marker reads the scheduler's round
// time through netsim.Port's type assertions, so a wrapper that hides
// sched.RoundInfo panics it and one that hides ObserveIdle feeds it a
// stale round time.
func mqecnProfile() topo.PortProfile {
	pp := dumbbellProfile()
	pp.NewMarker = func() ecn.Marker { return &ecn.MQECN{RTT: 80 * time.Microsecond, Lambda: 1} }
	return pp
}

func TestTracingDoesNotPerturbDumbbell(t *testing.T) {
	run := func(e *repEnv) error { return runDumbbell(e, mqecnProfile()) }
	plain, traced := rep(t, variantPlain, run), rep(t, variantTraced, run)
	sameOutcome(t, "dumbbell DWRR+MQ-ECN", plain.res, traced.res)
	if traced.res.Layer["sched.enqueue_calls"] == 0 || traced.res.Layer["ecn.decisions"] == 0 ||
		traced.res.Layer["transport.handle_calls"] == 0 {
		t.Errorf("wrappers saw no calls: %v", traced.res.Layer)
	}
}

// netsim.Port finds ObserveIdle and sched.RoundInfo by type assertion on
// its scheduler. The wrapper must answer both exactly as the scheduler
// it wraps does: hiding one changes DWRR's round timing (and MQ-ECN with
// it), inventing one makes Port.Round lie for WFQ and SP.
func TestWrapSchedKeepsOptionalInterfaces(t *testing.T) {
	tr := newTracer(1, 1)
	eng := sim.NewEngine()
	for _, c := range []struct {
		name        string
		inner       sched.Scheduler
		round, idle bool
	}{
		{"DWRR", topo.DWRRSched(eng, topo.EqualWeights(2)), true, true},
		{"WRR", topo.WRRSched(eng, topo.EqualWeights(2)), true, false},
		{"WFQ", sched.NewWFQ(topo.EqualWeights(2)), false, false},
		{"FIFO", sched.NewFIFO(), false, false},
	} {
		_, innerRound := c.inner.(sched.RoundInfo)
		_, innerIdle := c.inner.(idleObserver)
		if innerRound != c.round || innerIdle != c.idle {
			t.Fatalf("%s: scheduler has RoundInfo=%v ObserveIdle=%v, test expects %v/%v", c.name, innerRound, innerIdle, c.round, c.idle)
		}
		w := tr.wrapSched(c.inner)
		_, round := w.(sched.RoundInfo)
		_, idle := w.(idleObserver)
		if round != c.round || idle != c.idle {
			t.Errorf("%s: wrapper has RoundInfo=%v ObserveIdle=%v, scheduler has %v/%v", c.name, round, idle, c.round, c.idle)
		}
	}
}

func TestTracingDoesNotPerturbFatTree(t *testing.T) {
	var serial *repResult
	for _, shards := range []int{1, 2} {
		r := fatTreeRun{k: 4, shards: shards, flows: 6400, load: 0.3, ports: fatTree8.ports}
		run := func(e *repEnv) error { return runFatTree(e, r) }
		plain, traced := rep(t, variantPlain, run), rep(t, variantTraced, run)
		sameOutcome(t, "k=4 fat-tree", plain.res, traced.res)
		if serial == nil {
			serial = plain.res
		} else {
			sameOutcome(t, "k=4 fat-tree, 1 vs 2 shards", serial, plain.res)
		}
	}
}
