// Package transport implements the DCTCP transport the paper uses as the
// congestion-control protocol in every experiment (Section VI:
// "We use DCTCP to perform congestion control").
//
// The model is segment-level: the sender emits MSS-sized segments
// gated by a congestion window, the receiver acknowledges every data
// packet and echoes the CE codepoint in the ACK's ECE bit (per-packet
// accurate echo, the idealization DCTCP's estimator assumes), and the
// sender maintains the marked-byte fraction alpha with gain g,
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

// Config parametrizes a DCTCP sender.
type Config struct {
	// MSS is the maximum segment payload in bytes (default units.MSS).
	MSS int
	// InitWindow is the initial congestion window in segments
	// (default 10; the paper's large-scale runs use 16).
	InitWindow int
	// MaxWindow caps the congestion window in segments (default 4096).
	MaxWindow int
	// G is DCTCP's alpha gain (default 1/16).
	G float64
	// MinRTO lower-bounds the retransmission timeout (default 2ms).
	MinRTO time.Duration
	// RateLimit paces new data at the given application rate
	// (0 = unlimited). Models the paper's "start a 5 Gbps TCP flow".
	RateLimit units.Rate
	// ECN enables ECT on data packets (default on; set DisableECN to
	// turn it off).
	DisableECN bool
	// Filter is the ECN-accept hook (nil accepts all marks).
	Filter Filter
	// Obs, when non-nil, is the observability bus the sender reports
	// flow lifecycle, congestion and loss-recovery events to.
	Obs *obs.Bus
}

// withDefaults fills zero fields with defaults.
func (c Config) withDefaults() Config {
	if c.MSS <= 0 {
		c.MSS = units.MSS
	}
	if c.InitWindow <= 0 {
		c.InitWindow = 10
	}
	if c.MaxWindow <= 0 {
		c.MaxWindow = 4096
	}
	if c.G <= 0 {
		c.G = 1.0 / 16.0
	}
	if c.MinRTO <= 0 {
		c.MinRTO = 2 * time.Millisecond
	}
	return c
}
