package ecn

import (
	"testing"
	"time"

	"pmsb/internal/pkt"
	"pmsb/internal/units"
)

// fakePort is a scriptable PortView for marker unit tests.
type fakePort struct {
	queueBytes []int
	queuePkts  []int
	weights    []float64
	rate       units.Rate
	now        time.Duration
	round      RoundInfo
}

var _ PortView = (*fakePort)(nil)

func (f *fakePort) NumQueues() int       { return len(f.queueBytes) }
func (f *fakePort) QueueBytes(q int) int { return f.queueBytes[q] }
func (f *fakePort) QueuePackets(q int) int {
	if f.queuePkts == nil {
		return f.queueBytes[q] / units.MTU
	}
	return f.queuePkts[q]
}
func (f *fakePort) PortBytes() int {
	t := 0
	for _, b := range f.queueBytes {
		t += b
	}
	return t
}
func (f *fakePort) PortPackets() int {
	t := 0
	for q := range f.queueBytes {
		t += f.QueuePackets(q)
	}
	return t
}
func (f *fakePort) Weight(q int) float64 { return f.weights[q] }
func (f *fakePort) WeightSum() float64 {
	s := 0.0
	for _, w := range f.weights {
		s += w
	}
	return s
}
func (f *fakePort) LinkRate() units.Rate { return f.rate }
func (f *fakePort) Now() time.Duration   { return f.now }
func (f *fakePort) Round() RoundInfo     { return f.round }

type fakeRound struct {
	rt      time.Duration
	quantum int
}

func (r *fakeRound) RoundTime() time.Duration { return r.rt }
func (r *fakeRound) QuantumBytes(int) int     { return r.quantum }

func pv(rate units.Rate, weights []float64, queueBytes ...int) *fakePort {
	return &fakePort{queueBytes: queueBytes, weights: weights, rate: rate}
}

func TestStandardThreshold(t *testing.T) {
	// 10G x 80us x 1 = 100KB.
	if got := StandardThreshold(10*units.Gbps, 80*time.Microsecond, 1); got != 100000 {
		t.Fatalf("StandardThreshold = %d, want 100000", got)
	}
	// lambda scales linearly.
	if got := StandardThreshold(10*units.Gbps, 80*time.Microsecond, 0.5); got != 50000 {
		t.Fatalf("StandardThreshold = %d, want 50000", got)
	}
}

func TestPerQueueStandard(t *testing.T) {
	m := &PerQueueStandard{K: units.Packets(16)}
	p := &pkt.Packet{ECT: true, Size: units.MTU}
	tests := []struct {
		name string
		view *fakePort
		q    int
		want bool
	}{
		{"below", pv(10*units.Gbps, []float64{1, 1}, units.Packets(15), 0), 0, false},
		{"at threshold", pv(10*units.Gbps, []float64{1, 1}, units.Packets(16), 0), 0, true},
		{"other queue full does not matter", pv(10*units.Gbps, []float64{1, 1}, 0, units.Packets(100)), 0, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := m.ShouldMark(tt.view, tt.q, p); got != tt.want {
				t.Errorf("ShouldMark = %v, want %v", got, tt.want)
			}
		})
	}
	if m.Point() != AtEnqueue {
		t.Fatal("default point should be enqueue")
	}
}

func TestPerQueueFractional(t *testing.T) {
	// PortK = 16 pkts over weights 1:3 => K_0 = 4 pkts, K_1 = 12 pkts.
	m := &PerQueueFractional{PortK: units.Packets(16)}
	p := &pkt.Packet{ECT: true}
	view := pv(10*units.Gbps, []float64{1, 3}, units.Packets(4), units.Packets(11))
	if !m.ShouldMark(view, 0, p) {
		t.Fatal("queue 0 at 4 pkts should mark (K_0 = 4)")
	}
	if m.ShouldMark(view, 1, p) {
		t.Fatal("queue 1 at 11 pkts should not mark (K_1 = 12)")
	}
}

func TestPerPort(t *testing.T) {
	m := &PerPort{K: units.Packets(16)}
	p := &pkt.Packet{ECT: true}
	// Queue 0 is nearly empty but the port total crosses K: per-port
	// marking victimizes queue 0 — the paper's core complaint.
	view := pv(10*units.Gbps, []float64{1, 1}, units.Packets(1), units.Packets(20))
	if !m.ShouldMark(view, 0, p) {
		t.Fatal("per-port marking must mark any queue when port exceeds K")
	}
	view2 := pv(10*units.Gbps, []float64{1, 1}, units.Packets(1), units.Packets(2))
	if m.ShouldMark(view2, 0, p) {
		t.Fatal("below port threshold must not mark")
	}
}

func TestPerPool(t *testing.T) {
	pool := &Pool{}
	m := &PerPool{K: 1000, Shared: pool}
	p := &pkt.Packet{ECT: true}
	view := pv(10*units.Gbps, []float64{1}, 0)
	if m.ShouldMark(view, 0, p) {
		t.Fatal("empty pool should not mark")
	}
	pool.Add(1500)
	if !m.ShouldMark(view, 0, p) {
		t.Fatal("pool above K should mark even with empty local port")
	}
	pool.Add(-1500)
	if m.ShouldMark(view, 0, p) {
		t.Fatal("drained pool should not mark")
	}
}

func TestNone(t *testing.T) {
	m := None{}
	view := pv(10*units.Gbps, []float64{1}, units.Packets(1000))
	if m.ShouldMark(view, 0, &pkt.Packet{ECT: true}) {
		t.Fatal("None must never mark")
	}
}

func TestMQECNFallsBackWhenIdle(t *testing.T) {
	m := &MQECN{RTT: 80 * time.Microsecond, Lambda: 1}
	// Round time zero (idle port): threshold = standard = 100KB at 10G.
	view := pv(10*units.Gbps, []float64{1, 1}, 99000, 0)
	view.round = &fakeRound{rt: 0, quantum: units.MTU}
	if m.ShouldMark(view, 0, &pkt.Packet{ECT: true}) {
		t.Fatal("below standard threshold with idle round: no mark")
	}
	view.queueBytes[0] = 100000
	if !m.ShouldMark(view, 0, &pkt.Packet{ECT: true}) {
		t.Fatal("at standard threshold with idle round: mark")
	}
}

func TestMQECNScalesWithServiceRate(t *testing.T) {
	m := &MQECN{RTT: 80 * time.Microsecond, Lambda: 1}
	// Quantum 1500B per round, round time 2.4us => service rate 5 Gbps =
	// half the link; K_i = 50KB.
	view := pv(10*units.Gbps, []float64{1, 1}, 49000, 49000)
	view.round = &fakeRound{rt: 2400 * time.Nanosecond, quantum: units.MTU}
	if m.ShouldMark(view, 0, &pkt.Packet{ECT: true}) {
		t.Fatal("49KB below K_i=50KB: no mark")
	}
	view.queueBytes[0] = 51000
	if !m.ShouldMark(view, 0, &pkt.Packet{ECT: true}) {
		t.Fatal("51KB above K_i=50KB: mark")
	}
}

func TestMQECNCapsAtLinkRate(t *testing.T) {
	m := &MQECN{RTT: 80 * time.Microsecond, Lambda: 1}
	// Service rate quantum/round = 1500B/1us = 12 Gbps > C: cap at C,
	// threshold = standard (100KB).
	view := pv(10*units.Gbps, []float64{1}, 99000)
	view.round = &fakeRound{rt: time.Microsecond, quantum: units.MTU}
	if m.ShouldMark(view, 0, &pkt.Packet{ECT: true}) {
		t.Fatal("threshold must cap at the standard threshold")
	}
}

func TestMQECNPanicsWithoutRound(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic when scheduler has no round info")
		}
	}()
	m := &MQECN{RTT: 80 * time.Microsecond, Lambda: 1}
	view := pv(10*units.Gbps, []float64{1}, 0)
	m.ShouldMark(view, 0, &pkt.Packet{ECT: true})
}

func TestTCNSojourn(t *testing.T) {
	m := &TCN{Threshold: 20 * time.Microsecond}
	if m.Point() != AtDequeue {
		t.Fatal("TCN must be dequeue-only")
	}
	view := pv(10*units.Gbps, []float64{1}, units.Packets(100))
	view.now = 100 * time.Microsecond
	fresh := &pkt.Packet{ECT: true, EnqueuedAt: 90 * time.Microsecond}
	if m.ShouldMark(view, 0, fresh) {
		t.Fatal("10us sojourn below 20us threshold: no mark")
	}
	stale := &pkt.Packet{ECT: true, EnqueuedAt: 70 * time.Microsecond}
	if !m.ShouldMark(view, 0, stale) {
		t.Fatal("30us sojourn above 20us threshold: mark")
	}
}

func TestTCNThreshold(t *testing.T) {
	// Draining 16 MTU packets at 10 Gbps takes 19.2us (the paper's own
	// conversion).
	got := TCNThreshold(units.Packets(16), 10*units.Gbps)
	if got != 19200*time.Nanosecond {
		t.Fatalf("TCNThreshold = %v, want 19.2us", got)
	}
}

func TestPointString(t *testing.T) {
	if AtEnqueue.String() != "enqueue" || AtDequeue.String() != "dequeue" {
		t.Fatal("Point.String mismatch")
	}
	if Point(0).String() != "unknown" {
		t.Fatal("zero Point should stringify as unknown")
	}
}

func TestMarkerIdentities(t *testing.T) {
	pool := &Pool{}
	markers := []struct {
		m     Marker
		name  string
		point Point
	}{
		{&PerQueueStandard{K: 1, MarkPoint: AtDequeue}, "PerQueue(K)", AtDequeue},
		{&PerQueueFractional{PortK: 1, MarkPoint: AtDequeue}, "PerQueue(K_i)", AtDequeue},
		{&PerPort{K: 1, MarkPoint: AtDequeue}, "PerPort", AtDequeue},
		{&PerPool{K: 1, Shared: pool, MarkPoint: AtDequeue}, "PerPool", AtDequeue},
		{None{}, "None", AtEnqueue},
		{&MQECN{RTT: time.Microsecond, Lambda: 1, MarkPoint: AtDequeue}, "MQ-ECN", AtDequeue},
		{&TCN{Threshold: time.Microsecond}, "TCN", AtDequeue},
		{NewAveraged(&PerPort{K: 1}, 0.5), "PerPort+avg", AtEnqueue},
	}
	for _, tt := range markers {
		if got := tt.m.Name(); got != tt.name {
			t.Errorf("Name = %q, want %q", got, tt.name)
		}
		if got := tt.m.Point(); got != tt.point {
			t.Errorf("%s Point = %v, want %v", tt.name, got, tt.point)
		}
	}
	// Default (zero MarkPoint) resolves to enqueue for configurable
	// markers.
	for _, m := range []Marker{
		&PerQueueFractional{PortK: 1}, &PerPool{K: 1}, &MQECN{RTT: 1, Lambda: 1},
	} {
		if m.Point() != AtEnqueue {
			t.Errorf("%s default point = %v, want enqueue", m.Name(), m.Point())
		}
	}
}

func TestPerPoolWithoutSharedFallsBack(t *testing.T) {
	m := &PerPool{K: units.Packets(2)}
	view := pv(10*units.Gbps, []float64{1}, units.Packets(3))
	if !m.ShouldMark(view, 0, &pkt.Packet{ECT: true}) {
		t.Fatal("nil pool must fall back to port occupancy")
	}
}

func TestAveragedViewPacketCounts(t *testing.T) {
	// Exercise the averaged view's packet accessors via a probe marker.
	inner := &countProbe{}
	view := pv(10*units.Gbps, []float64{1}, units.Packets(6))
	probe := NewAveraged(inner, 1)
	probe.ShouldMark(view, 0, &pkt.Packet{ECT: true})
	if inner.queuePkts != 6 || inner.portPkts != 6 {
		t.Fatalf("averaged packet view = %d/%d, want 6/6", inner.queuePkts, inner.portPkts)
	}
}

// countProbe records what the averaged view exposes.
type countProbe struct {
	queuePkts, portPkts int
}

func (c *countProbe) Name() string { return "probe" }
func (c *countProbe) Point() Point { return AtEnqueue }
func (c *countProbe) ShouldMark(pv PortView, q int, p *pkt.Packet) bool {
	c.queuePkts = pv.QueuePackets(q)
	c.portPkts = pv.PortPackets()
	return false
}
