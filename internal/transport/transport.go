// Package transport implements the DCTCP transport the paper uses as the
// congestion-control protocol in every experiment (Section VI:
// "We use DCTCP to perform congestion control").
//
// The model is segment-level: the sender emits units.MSS-sized segments
// gated by a congestion window (at most maxWindow segments), the receiver acknowledges every data
// packet and echoes the CE codepoint in the ACK's ECE bit (per-packet
// accurate echo, the idealization DCTCP's estimator assumes), and the
// sender maintains the marked-byte fraction alpha with gain dctcpG,
// cutting its window by alpha/2 at most once per RTT.
//
// The sender exposes an ECN-accept hook (Filter) so PMSB(e)'s
// Algorithm 2 can decide, per received signal, whether the flow should
// back off — the "selective blindness at the end host".
package transport

import (
	"time"

	"pmsb/internal/obs"
	"pmsb/internal/units"
)

// Filter decides whether a received congestion signal is honoured.
// core.PMSBe implements it; a nil filter accepts every mark (standard
// DCTCP).
type Filter interface {
	// Accept reports whether the sender should react to the signal.
	// curRTT is the flow's most recent RTT sample; marked is the raw
	// ECE bit of the incoming ACK.
	Accept(curRTT time.Duration, marked bool) bool
}

// DCTCP's fixed parameters.
const (
	dctcpG    = 1.0 / 16.0 // alpha gain
	maxWindow = 4096       // congestion window cap, in segments
)

// Config parametrizes a DCTCP sender. Data packets are always ECT.
type Config struct {
	// InitWindow is the initial congestion window in segments
	// (default 10; the paper's large-scale runs use 16).
	InitWindow int
	// MinRTO lower-bounds the retransmission timeout (default 2ms).
	MinRTO time.Duration
	// RateLimit paces new data at the given application rate
	// (0 = unlimited). Models the paper's "start a 5 Gbps TCP flow".
	RateLimit units.Rate
	// Filter is the ECN-accept hook (nil accepts all marks).
	Filter Filter
	// Obs, when non-nil, is the observability bus the sender reports
	// flow lifecycle, congestion and loss-recovery events to.
	Obs *obs.Bus
}

// withDefaults fills zero fields with defaults.
func (c Config) withDefaults() Config {
	if c.InitWindow <= 0 {
		c.InitWindow = 10
	}
	if c.MinRTO <= 0 {
		c.MinRTO = 2 * time.Millisecond
	}
	return c
}
