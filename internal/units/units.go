// Package units provides the physical quantities used throughout the
// simulator: link rates in bits per second, byte sizes, and the exact
// serialization-time arithmetic that converts between them.
//
// All simulator time is virtual time expressed as time.Duration
// (nanoseconds). Rates are integer bits per second so that common
// datacenter rates (1/10/40/100 Gbps) are exact.
package units

import (
	"fmt"
	"time"
)

// Rate is a link or application rate in bits per second.
type Rate int64

// Common datacenter rates.
const (
	BitPerSecond Rate = 1
	Kbps              = 1000 * BitPerSecond
	Mbps              = 1000 * Kbps
	Gbps              = 1000 * Mbps
)

// Packet size constants (bytes). The simulator follows the paper's NS-3
// setup: 1500-byte MTU data segments and small ACK segments.
const (
	// MTU is the maximum transmission unit for data segments.
	MTU = 1500
	// HeaderSize approximates the TCP/IP header overhead contained
	// within MTU-sized segments.
	HeaderSize = 40
	// MSS is the maximum segment payload carried by an MTU packet.
	MSS = MTU - HeaderSize
	// AckSize is the wire size of a pure ACK segment.
	AckSize = 64
)

// String renders the rate with a human unit, e.g. "10Gbps".
func (r Rate) String() string {
	switch {
	case r >= Gbps && r%Gbps == 0:
		return fmt.Sprintf("%dGbps", int64(r/Gbps))
	case r >= Mbps && r%Mbps == 0:
		return fmt.Sprintf("%dMbps", int64(r/Mbps))
	case r >= Kbps && r%Kbps == 0:
		return fmt.Sprintf("%dKbps", int64(r/Kbps))
	default:
		return fmt.Sprintf("%dbps", int64(r))
	}
}

// Serialization returns the time needed to place size bytes on a link of
// rate r. It rounds up to the next nanosecond so a transmitter never
// finishes early.
func Serialization(size int, r Rate) time.Duration {
	if r <= 0 || size <= 0 {
		return 0
	}
	bits := int64(size) * 8
	ns := (bits*int64(time.Second) + int64(r) - 1) / int64(r)
	return time.Duration(ns)
}

// RateOf returns the average rate achieved by moving size bytes in d.
func RateOf(size int64, d time.Duration) Rate {
	if d <= 0 {
		return 0
	}
	return Rate(size * 8 * int64(time.Second) / int64(d))
}

// Packets converts a packet count into bytes assuming MTU-sized packets.
// ECN thresholds in the paper are quoted in packets; the simulator keeps
// all buffer accounting in bytes.
func Packets(n int) int {
	return n * MTU
}

// BDP returns the bandwidth-delay product in bytes for rate r and
// round-trip time rtt.
func BDP(r Rate, rtt time.Duration) int {
	return int(int64(r) / 8 * int64(rtt) / int64(time.Second))
}
