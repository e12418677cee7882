package core

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"pmsb/internal/ecn"
	"pmsb/internal/pkt"
	"pmsb/internal/units"
)

// fakePort is a minimal scriptable ecn.PortView.
type fakePort struct {
	queueBytes []int
	weights    []float64
	rate       units.Rate
	now        time.Duration
}

var _ ecn.PortView = (*fakePort)(nil)

func (f *fakePort) NumQueues() int         { return len(f.queueBytes) }
func (f *fakePort) QueueBytes(q int) int   { return f.queueBytes[q] }
func (f *fakePort) QueuePackets(q int) int { return f.queueBytes[q] / units.MTU }
func (f *fakePort) PortBytes() int {
	t := 0
	for _, b := range f.queueBytes {
		t += b
	}
	return t
}
func (f *fakePort) PortPackets() int     { return f.PortBytes() / units.MTU }
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
func (f *fakePort) Round() ecn.RoundInfo { return nil }

func view(weights []float64, queueBytes ...int) *fakePort {
	return &fakePort{queueBytes: queueBytes, weights: weights, rate: 10 * units.Gbps}
}

func TestPMSBAlgorithm1(t *testing.T) {
	m := &PMSB{PortK: units.Packets(12)}
	p := &pkt.Packet{ECT: true}
	tests := []struct {
		name string
		view *fakePort
		q    int
		want bool
	}{
		{
			// Line 1-3: port below threshold => never mark.
			"port below threshold",
			view([]float64{1, 1}, units.Packets(11), 0),
			0, false,
		},
		{
			// Port above K, queue 0 above its filter (6 pkts for 1:1).
			"port and queue above",
			view([]float64{1, 1}, units.Packets(8), units.Packets(5)),
			0, true,
		},
		{
			// Port above K but queue 1 below its filter: the victim is
			// protected — the selective blindness at the heart of PMSB.
			"victim queue protected",
			view([]float64{1, 1}, units.Packets(12), units.Packets(2)),
			1, false,
		},
		{
			// Same state, the congested queue still gets marked.
			"congested queue marked",
			view([]float64{1, 1}, units.Packets(12), units.Packets(2)),
			0, true,
		},
		{
			// Queue exactly at its threshold: Algorithm 1 uses >=.
			"queue exactly at threshold marks",
			view([]float64{1, 1}, units.Packets(6), units.Packets(6)),
			0, true,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := m.ShouldMark(tt.view, tt.q, p); got != tt.want {
				t.Errorf("ShouldMark = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestPMSBWeightedThresholds(t *testing.T) {
	// Weights 1:3, PortK = 16 pkts: filters are 4 and 12 pkts.
	m := &PMSB{PortK: units.Packets(16)}
	if got := m.QueueThreshold(1, 4); got != float64(units.Packets(4)) {
		t.Fatalf("QueueThreshold(1,4) = %v, want %d", got, units.Packets(4))
	}
	p := &pkt.Packet{ECT: true}
	// Port = 16 pkts total: queue0 has 4 (at filter), queue1 has 12.
	v := view([]float64{1, 3}, units.Packets(4), units.Packets(12))
	if !m.ShouldMark(v, 0, p) || !m.ShouldMark(v, 1, p) {
		t.Fatal("both queues exactly at weighted filters should mark")
	}
	v2 := view([]float64{1, 3}, units.Packets(3), units.Packets(13))
	if m.ShouldMark(v2, 0, p) {
		t.Fatal("queue 0 below its 4-pkt filter must not mark")
	}
	if !m.ShouldMark(v2, 1, p) {
		t.Fatal("queue 1 above its 12-pkt filter must mark")
	}
}

func TestPMSBDefaultPoint(t *testing.T) {
	m := &PMSB{PortK: 1}
	if m.Point() != ecn.AtEnqueue {
		t.Fatal("default mark point should be enqueue")
	}
	m.MarkPoint = ecn.AtDequeue
	if m.Point() != ecn.AtDequeue {
		t.Fatal("configured mark point not honoured")
	}
}

// Property: PMSB decisions are monotone — adding backlog to the packet's
// own queue never turns a mark into a non-mark, and a queue below its
// weighted filter never marks no matter how full the rest of the port is.
func TestPropertyPMSBMonotone(t *testing.T) {
	m := &PMSB{PortK: units.Packets(12)}
	p := &pkt.Packet{ECT: true}
	f := func(q0, q1, extra uint16) bool {
		v := view([]float64{1, 1}, int(q0), int(q1))
		before := m.ShouldMark(v, 0, p)
		v2 := view([]float64{1, 1}, int(q0)+int(extra), int(q1))
		after := m.ShouldMark(v2, 0, p)
		if before && !after {
			return false // growing own queue unmarked it
		}
		// Below-filter queue is always blind, regardless of other queues.
		filter := m.QueueThreshold(1, 2)
		if float64(q0) < filter {
			huge := view([]float64{1, 1}, int(q0), 1<<20)
			if m.ShouldMark(huge, 0, p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPMSBe(t *testing.T) {
	f := &PMSBe{RTTThreshold: 40 * time.Microsecond}
	tests := []struct {
		name   string
		rtt    time.Duration
		marked bool
		accept bool
	}{
		{"no mark", 100 * time.Microsecond, false, false},
		{"mark with low rtt ignored", 30 * time.Microsecond, true, false},
		{"mark with high rtt accepted", 50 * time.Microsecond, true, true},
		{"mark exactly at threshold accepted", 40 * time.Microsecond, true, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := f.Accept(tt.rtt, tt.marked); got != tt.accept {
				t.Errorf("Accept(%v, %v) = %v, want %v", tt.rtt, tt.marked, got, tt.accept)
			}
			// IgnoreMark is the literal Algorithm 2 output.
			if got := f.IgnoreMark(tt.rtt, tt.marked); got != !tt.accept {
				t.Errorf("IgnoreMark = %v, want %v", got, !tt.accept)
			}
		})
	}
}

func TestPMSBeZeroValueIsDCTCP(t *testing.T) {
	var f PMSBe
	if !f.Accept(time.Microsecond, true) {
		t.Fatal("zero-value PMSBe must accept every mark (plain DCTCP)")
	}
}

func TestPortThreshold(t *testing.T) {
	// 10G x 9.6us x 1 = 12000 B = 8 pkts; paper's 12-pkt example uses a
	// slightly larger RTT.
	got := ecn.StandardThreshold(10*units.Gbps, 14400*time.Nanosecond, 1)
	if got != units.Packets(12) {
		t.Fatalf("port threshold = %d, want %d", got, units.Packets(12))
	}
}

func analysisFixture() *Analysis {
	return &Analysis{
		C:       10 * units.Gbps,
		RTT:     80 * time.Microsecond,
		Weights: []float64{1, 1},
	}
}

func TestAnalysisQueueLength(t *testing.T) {
	a := analysisFixture()
	// gamma = 0.5, BDP = 100KB. With n=10 flows of window 10KB:
	// Q = 100KB - 50KB = 50KB.
	got := a.QueueLength(0, 10, 10000)
	if got != 50000 {
		t.Fatalf("QueueLength = %v, want 50000", got)
	}
}

func TestAnalysisTheorem41(t *testing.T) {
	a := analysisFixture()
	// k_i > gamma_i C RTT / 7 = 0.5 * 100KB / 7 ~ 7142.9 B.
	got := a.MinThreshold(0)
	want := 0.5 * 100000.0 / 7.0
	if math.Abs(got-want) > 1e-6 {
		t.Fatalf("MinThreshold = %v, want %v", got, want)
	}
	// Port threshold = sum over queues.
	if math.Abs(a.MinPortThreshold()-2*want) > 1e-6 {
		t.Fatalf("MinPortThreshold = %v, want %v", a.MinPortThreshold(), 2*want)
	}
}

// Property: the closed-form lower bound Q_i^- (Eq. 10) really lower
// bounds Q_i^min (Eq. 8 - Eq. 9) over all flow counts, and it is
// attained at the worst-case flow count of Eq. 11.
func TestPropertyLowerBoundHolds(t *testing.T) {
	a := analysisFixture()
	f := func(kPkts uint8, nRaw uint8) bool {
		ki := float64(units.Packets(int(kPkts%64) + 1))
		n := int(nRaw%200) + 1
		bound := a.QueueMinLowerBound(0, ki)
		qmin := a.QueueMin(0, n, ki)
		return qmin >= bound-1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// Property: thresholds above the Theorem IV.1 bound give a positive
// worst-case queue minimum; thresholds well below it go negative.
func TestPropertyTheoremBoundary(t *testing.T) {
	a := analysisFixture()
	min := a.MinThreshold(0)
	// At 1.05x the bound the worst-case minimum is positive.
	if got := a.QueueMinLowerBound(0, 1.05*min); got <= 0 {
		t.Fatalf("Q_i^- at 1.05x bound = %v, want > 0", got)
	}
	// At 0.95x the bound it is negative (throughput loss possible).
	if got := a.QueueMinLowerBound(0, 0.95*min); got >= 0 {
		t.Fatalf("Q_i^- at 0.95x bound = %v, want < 0", got)
	}
}

// The worst-case flow count (Eq. 11) approximately minimizes QueueMin.
func TestWorstCaseFlows(t *testing.T) {
	a := analysisFixture()
	ki := float64(units.Packets(16))
	nStar := a.WorstCaseFlows(0, ki)
	qAtStar := a.QueueMin(0, int(math.Round(nStar)), ki)
	for _, n := range []int{1, 2, 5, 20, 50, 100, 200} {
		if q := a.QueueMin(0, n, ki); q < qAtStar-float64(units.MTU) {
			t.Fatalf("QueueMin(n=%d) = %v below worst-case %v (n*=%v)", n, q, qAtStar, nStar)
		}
	}
}
