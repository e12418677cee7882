package units

import (
	"testing"
	"testing/quick"
	"time"
)

func TestSerialization(t *testing.T) {
	tests := []struct {
		name string
		size int
		rate Rate
		want time.Duration
	}{
		{"mtu at 10G", 1500, 10 * Gbps, 1200 * time.Nanosecond},
		{"mtu at 1G", 1500, 1 * Gbps, 12 * time.Microsecond},
		{"ack at 10G", 64, 10 * Gbps, 52 * time.Nanosecond}, // 51.2ns rounded up
		{"zero size", 0, 10 * Gbps, 0},
		{"zero rate", 1500, 0, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Serialization(tt.size, tt.rate); got != tt.want {
				t.Errorf("Serialization(%d, %v) = %v, want %v", tt.size, tt.rate, got, tt.want)
			}
		})
	}
}

func TestRateString(t *testing.T) {
	tests := []struct {
		rate Rate
		want string
	}{
		{10 * Gbps, "10Gbps"},
		{100 * Mbps, "100Mbps"},
		{5 * Kbps, "5Kbps"},
		{999, "999bps"},
	}
	for _, tt := range tests {
		if got := tt.rate.String(); got != tt.want {
			t.Errorf("%d.String() = %q, want %q", int64(tt.rate), got, tt.want)
		}
	}
}

func TestRateOf(t *testing.T) {
	// 1.25 MB in 1 ms = 10 Gbps.
	if got := RateOf(1250000, time.Millisecond); got != 10*Gbps {
		t.Fatalf("RateOf = %v, want 10Gbps", got)
	}
	if got := RateOf(100, 0); got != 0 {
		t.Fatalf("RateOf zero duration = %v, want 0", got)
	}
}

func TestPackets(t *testing.T) {
	if got := Packets(16); got != 24000 {
		t.Fatalf("Packets(16) = %d, want 24000", got)
	}
}

func TestBDP(t *testing.T) {
	// 10 Gbps x 80 us = 100 KB.
	if got := BDP(10*Gbps, 80*time.Microsecond); got != 100000 {
		t.Fatalf("BDP = %d, want 100000", got)
	}
}

// Property: serialization time is always sufficient to carry the bytes,
// and never over-estimates by more than 1 ns.
func TestPropertySerializationBounds(t *testing.T) {
	f := func(size uint16, rateG uint8) bool {
		if rateG == 0 {
			return true
		}
		r := Rate(rateG) * Gbps
		d := Serialization(int(size), r)
		bits := int64(size) * 8
		exactNs := float64(bits) * 1e9 / float64(r)
		got := float64(d.Nanoseconds())
		return got >= exactNs && got < exactNs+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
