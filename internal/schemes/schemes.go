// Package schemes maps user-facing names ("pmsb", "tcn", "dwrr", ...)
// to the library's schedulers, markers and transport filters, and says
// which pairs go together. pmsbsim's flow and replay subcommands share
// it so their flags behave identically.
package schemes

import (
	"fmt"
	"strings"
	"time"

	"pmsb/internal/core"
	"pmsb/internal/ecn"
	"pmsb/internal/sched"
	"pmsb/internal/sim"
	"pmsb/internal/topo"
	"pmsb/internal/transport"
	"pmsb/internal/units"
)

// SchedulerNames lists the accepted scheduler names.
func SchedulerNames() []string {
	return []string{"fifo", "wrr", "dwrr", "wfq", "sp", "spwfq"}
}

// MarkerNames lists the accepted marking-scheme names.
func MarkerNames() []string {
	return []string{"none", "perqueue", "fractional", "perport", "mqecn", "tcn", "red", "pmsb", "pmsbe"}
}

// Scheduler returns the constructor for the named discipline in the
// form of topo.PortProfile.NewSchedWith: it is handed the engine that
// drives the port, so the round-based disciplines read that engine's
// clock and nothing is bound before the fabric exists. marker is the
// scheme the scheduler will serve; a scheme that reads round times
// (RoundBased) over a scheduler that keeps none is refused here, before
// anything is built.
func Scheduler(name, marker string) (func(*sim.Engine, []float64) sched.Scheduler, error) {
	var build func(*sim.Engine, []float64) sched.Scheduler
	rounds := false
	switch strings.ToLower(name) {
	case "fifo":
		build = func(*sim.Engine, []float64) sched.Scheduler { return sched.NewFIFO() }
	case "wrr":
		build, rounds = topo.WRRSched, true
	case "dwrr":
		build, rounds = topo.DWRRSched, true
	case "wfq":
		build = func(_ *sim.Engine, w []float64) sched.Scheduler { return sched.NewWFQ(w) }
	case "sp":
		build = func(_ *sim.Engine, w []float64) sched.Scheduler { return sched.NewSP(len(w)) }
	case "spwfq":
		build = func(_ *sim.Engine, w []float64) sched.Scheduler { return sched.NewSPWFQ(1, w) }
	default:
		return nil, fmt.Errorf("unknown scheduler %q (want one of %v)", name, SchedulerNames())
	}
	if RoundBased(marker) && !rounds {
		return nil, fmt.Errorf("marker %q needs a round-based scheduler (dwrr or wrr), not %q", marker, name)
	}
	return build, nil
}

// MarkerConfig parametrizes the marker families.
type MarkerConfig struct {
	// KBytes is the port/standard threshold in bytes.
	KBytes int
	// Rate is the link rate (for MQ-ECN/TCN time conversions).
	Rate units.Rate
	// Dequeue selects dequeue-point marking where configurable.
	Dequeue bool
	// RTTThreshold is PMSB(e)'s accept boundary.
	RTTThreshold time.Duration
}

// Marker returns the marker factory for the named scheme plus the
// end-host filter factory when the scheme includes one (pmsbe), or
// nil factories for "none".
func Marker(name string, cfg MarkerConfig) (topo.MarkerFactory, func() transport.Filter, error) {
	point := ecn.AtEnqueue
	if cfg.Dequeue {
		point = ecn.AtDequeue
	}
	k := cfg.KBytes
	switch strings.ToLower(name) {
	case "none":
		return nil, nil, nil
	case "perqueue":
		return func() ecn.Marker { return &ecn.PerQueueStandard{K: k, MarkPoint: point} }, nil, nil
	case "fractional":
		return func() ecn.Marker { return &ecn.PerQueueFractional{PortK: k, MarkPoint: point} }, nil, nil
	case "perport":
		return func() ecn.Marker { return &ecn.PerPort{K: k, MarkPoint: point} }, nil, nil
	case "mqecn":
		return func() ecn.Marker {
			return &ecn.MQECN{RTT: units.Serialization(k, cfg.Rate), Lambda: 1, MarkPoint: point}
		}, nil, nil
	case "tcn":
		return func() ecn.Marker { return &ecn.TCN{Threshold: units.Serialization(k, cfg.Rate)} }, nil, nil
	case "red":
		return func() ecn.Marker { return &ecn.RED{MinK: k / 2, MaxK: k, MaxP: 1, MarkPoint: point} }, nil, nil
	case "pmsb":
		return func() ecn.Marker { return &core.PMSB{PortK: k, MarkPoint: point} }, nil, nil
	case "pmsbe":
		filter := func() transport.Filter { return &core.PMSBe{RTTThreshold: cfg.RTTThreshold} }
		return func() ecn.Marker { return &ecn.PerPort{K: k, MarkPoint: point} }, filter, nil
	default:
		return nil, nil, fmt.Errorf("unknown marker %q (want one of %v)", name, MarkerNames())
	}
}

// RoundBased reports whether the named scheme requires a round-based
// scheduler (MQ-ECN's limitation).
func RoundBased(marker string) bool {
	return strings.ToLower(marker) == "mqecn"
}
