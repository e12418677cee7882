package experiment

import (
	"strings"
	"time"

	"pmsb/internal/core"
	"pmsb/internal/ecn"
	"pmsb/internal/pkt"
	"pmsb/internal/units"
)

// capability probes derive Table I programmatically from the marker
// implementations instead of hard-coding the matrix, so the table stays
// honest if the code changes.

// supportsGenericScheduler reports whether the marker works on a port
// whose scheduler exposes no round information (WFQ/SP).
func supportsGenericScheduler(m ecn.Marker) (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	// A minimal PortView with Round() == nil; if the marker needs round
	// state it panics (MQ-ECN's documented limitation).
	pv := probeView{}
	m.ShouldMark(pv, 0, probePacket())
	return true
}

// supportsEarlyNotification reports whether the marker can deliver
// congestion information at enqueue time (before the packet's sojourn):
// duration-based markers cannot, occupancy-based ones can.
func supportsEarlyNotification(m ecn.Marker) bool {
	// TCN is pinned to dequeue because its signal does not exist before
	// the packet has waited; every occupancy-based marker in this repo
	// honours a configurable mark point with enqueue as default.
	return m.Point() == ecn.AtEnqueue
}

func table1Spec() Spec {
	return Spec{
		ID:    "table1",
		Title: "Table I: MQ-ECN vs TCN vs PMSB vs PMSB(e) capability matrix",
		Run:   runTable1,
	}
}

func runTable1(Options) (*Result, error) {
	res := &Result{
		ID:    "table1",
		Title: "Capability comparison (derived from the implementations)",
		Headers: []string{
			"scheme", "generic_scheduler", "round_based_scheduler",
			"early_notification", "no_switch_modification",
		},
	}
	k := units.Packets(12)
	rows := []struct {
		name   string
		marker ecn.Marker
		// endHost marks PMSB(e): its logic runs at the sender, so no
		// switch modification beyond commodity per-port ECN.
		endHost bool
		// paper is the scheme's row of the paper's Table I.
		paper string
	}{
		{"mq-ecn", &ecn.MQECN{RTT: 80 * time.Microsecond, Lambda: 1}, false, "no yes yes no"},
		{"tcn", &ecn.TCN{Threshold: 78 * time.Microsecond}, false, "yes yes no no"},
		{"pmsb", &core.PMSB{PortK: k}, false, "yes yes yes no"},
		{"pmsb(e)", &ecn.PerPort{K: k}, true, "yes yes yes yes"},
	}
	mark := func(b bool) string {
		if b {
			return "yes"
		}
		return "no"
	}
	for _, r := range rows {
		cells := []string{
			mark(supportsGenericScheduler(r.marker)),
			"yes", // every scheme works on round-based schedulers
			mark(supportsEarlyNotification(r.marker)),
			mark(r.endHost),
		}
		res.AddRow(append([]string{r.name}, cells...)...)
		got := strings.Join(cells, " ")
		res.verdict(r.name+"'s Table I row (generic, round-based, early notification, no switch modification)",
			r.paper, got, "= paper", got == r.paper)
	}
	return res, nil
}

// probeView is the minimal PortView used by capability probes: a single
// lightly loaded queue with no round info.
type probeView struct{}

var _ ecn.PortView = probeView{}

func (probeView) NumQueues() int       { return 1 }
func (probeView) QueueBytes(int) int   { return units.MTU }
func (probeView) QueuePackets(int) int { return 1 }
func (probeView) PortBytes() int       { return units.MTU }
func (probeView) PortPackets() int     { return 1 }
func (probeView) Weight(int) float64   { return 1 }
func (probeView) WeightSum() float64   { return 1 }
func (probeView) LinkRate() units.Rate { return 10 * units.Gbps }
func (probeView) Now() time.Duration   { return time.Millisecond }
func (probeView) Round() ecn.RoundInfo { return nil }

func probePacket() *pkt.Packet { return &pkt.Packet{ECT: true, Size: units.MTU} }
