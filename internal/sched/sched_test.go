package sched

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"pmsb/internal/pkt"
	"pmsb/internal/units"
)

func mkpkt(size int) *pkt.Packet {
	return &pkt.Packet{Size: size, Payload: size - units.HeaderSize}
}

// allSchedulers builds one instance of every scheduler with n queues and
// the given weights (ignored by FIFO).
func allSchedulers(weights []float64) map[string]Scheduler {
	return map[string]Scheduler{
		"FIFO":   NewFIFO(),
		"SP":     NewSP(len(weights)),
		"WRR":    NewWRR(weights),
		"DWRR":   NewDWRR(weights, units.MTU),
		"WFQ":    NewWFQ(weights),
		"SP+WFQ": NewSPWFQ(1, weights),
	}
}

func TestConformance(t *testing.T) {
	weights := []float64{1, 2, 1}
	for name, s := range allSchedulers(weights) {
		t.Run(name, func(t *testing.T) {
			if _, _, ok := s.Dequeue(); ok {
				t.Fatal("Dequeue from empty scheduler reported ok")
			}
			nq := s.NumQueues()
			if nq < 1 {
				t.Fatalf("NumQueues = %d", nq)
			}

			// Enqueue a deterministic mix, verify byte/packet accounting.
			r := rand.New(rand.NewSource(1))
			var wantBytes, wantPkts int
			for i := 0; i < 200; i++ {
				size := 64 + r.Intn(units.MTU-64)
				s.Enqueue(i%nq, mkpkt(size))
				wantBytes += size
				wantPkts++
			}
			if s.TotalBytes() != wantBytes {
				t.Fatalf("TotalBytes = %d, want %d", s.TotalBytes(), wantBytes)
			}
			if s.TotalPackets() != wantPkts {
				t.Fatalf("TotalPackets = %d, want %d", s.TotalPackets(), wantPkts)
			}
			sumQ := 0
			for q := 0; q < nq; q++ {
				sumQ += s.QueueBytes(q)
			}
			if sumQ != wantBytes {
				t.Fatalf("sum QueueBytes = %d, want %d", sumQ, wantBytes)
			}

			// Drain fully: every packet comes back exactly once, from the
			// queue the scheduler claims.
			got := 0
			for {
				p, q, ok := s.Dequeue()
				if !ok {
					break
				}
				if p == nil {
					t.Fatal("ok Dequeue returned nil packet")
				}
				if q < 0 || q >= nq {
					t.Fatalf("Dequeue queue index %d out of range", q)
				}
				got++
				wantBytes -= p.Size
			}
			if got != wantPkts {
				t.Fatalf("drained %d packets, want %d", got, wantPkts)
			}
			if wantBytes != 0 || s.TotalBytes() != 0 || s.TotalPackets() != 0 {
				t.Fatalf("residual accounting: bytes=%d total=%d pkts=%d",
					wantBytes, s.TotalBytes(), s.TotalPackets())
			}
			if s.WeightSum() <= 0 {
				t.Fatal("WeightSum must be positive")
			}
		})
	}
}

// TestWorkConservation: while any queue is backlogged, Dequeue succeeds.
func TestWorkConservation(t *testing.T) {
	weights := []float64{1, 1, 1, 1}
	for name, s := range allSchedulers(weights) {
		t.Run(name, func(t *testing.T) {
			r := rand.New(rand.NewSource(7))
			for i := 0; i < 500; i++ {
				if r.Intn(3) > 0 || s.TotalPackets() == 0 {
					s.Enqueue(r.Intn(s.NumQueues()), mkpkt(units.MTU))
				} else {
					if _, _, ok := s.Dequeue(); !ok {
						t.Fatalf("Dequeue failed with %d packets buffered", s.TotalPackets())
					}
				}
			}
		})
	}
}

// drainShares keeps all queues backlogged and measures the byte share
// each queue receives over nDeq dequeues.
func drainShares(t *testing.T, s Scheduler, sizes func(q int) int, nDeq int) []float64 {
	t.Helper()
	nq := s.NumQueues()
	refill := func() {
		for q := 0; q < nq; q++ {
			for s.QueuePackets(q) < 4 {
				s.Enqueue(q, mkpkt(sizes(q)))
			}
		}
	}
	bytes := make([]float64, nq)
	total := 0.0
	for i := 0; i < nDeq; i++ {
		refill()
		p, q, ok := s.Dequeue()
		if !ok {
			t.Fatal("Dequeue failed on backlogged scheduler")
		}
		bytes[q] += float64(p.Size)
		total += float64(p.Size)
	}
	for q := range bytes {
		bytes[q] /= total
	}
	return bytes
}

func checkShares(t *testing.T, got []float64, want []float64, tol float64) {
	t.Helper()
	for q := range want {
		if got[q] < want[q]-tol || got[q] > want[q]+tol {
			t.Fatalf("queue %d share = %.3f, want %.3f +/- %.3f (all: %v)", q, got[q], want[q], tol, got)
		}
	}
}

func TestDWRRWeightedShares(t *testing.T) {
	s := NewDWRR([]float64{1, 2, 1}, units.MTU)
	shares := drainShares(t, s, func(int) int { return units.MTU }, 4000)
	checkShares(t, shares, []float64{0.25, 0.5, 0.25}, 0.02)
}

func TestDWRRVariablePacketSizes(t *testing.T) {
	// DWRR must be fair in bytes even when queue 0 sends small packets.
	s := NewDWRR([]float64{1, 1}, units.MTU)
	shares := drainShares(t, s, func(q int) int {
		if q == 0 {
			return 300
		}
		return units.MTU
	}, 8000)
	checkShares(t, shares, []float64{0.5, 0.5}, 0.03)
}

func TestWRRWeightedShares(t *testing.T) {
	// Equal packet sizes: WRR shares packets in weight proportion.
	s := NewWRR([]float64{1, 3})
	shares := drainShares(t, s, func(int) int { return units.MTU }, 4000)
	checkShares(t, shares, []float64{0.25, 0.75}, 0.02)
}

func TestWFQWeightedShares(t *testing.T) {
	s := NewWFQ([]float64{1, 2, 5})
	shares := drainShares(t, s, func(int) int { return units.MTU }, 8000)
	checkShares(t, shares, []float64{1.0 / 8, 2.0 / 8, 5.0 / 8}, 0.02)
}

func TestWFQVariablePacketSizes(t *testing.T) {
	s := NewWFQ([]float64{1, 1})
	shares := drainShares(t, s, func(q int) int {
		if q == 0 {
			return 500
		}
		return units.MTU
	}, 9000)
	checkShares(t, shares, []float64{0.5, 0.5}, 0.03)
}

func TestSPStrictOrder(t *testing.T) {
	s := NewSP(3)
	s.Enqueue(2, mkpkt(100))
	s.Enqueue(1, mkpkt(100))
	s.Enqueue(0, mkpkt(100))
	s.Enqueue(0, mkpkt(100))
	wantOrder := []int{0, 0, 1, 2}
	for i, want := range wantOrder {
		_, q, ok := s.Dequeue()
		if !ok || q != want {
			t.Fatalf("dequeue %d from queue %d, want %d", i, q, want)
		}
	}
}

func TestSPHighPriorityPreempts(t *testing.T) {
	s := NewSP(2)
	s.Enqueue(1, mkpkt(100))
	s.Enqueue(1, mkpkt(100))
	if _, q, _ := s.Dequeue(); q != 1 {
		t.Fatalf("got queue %d, want 1", q)
	}
	// A late high-priority arrival is served before remaining low ones.
	s.Enqueue(0, mkpkt(100))
	if _, q, _ := s.Dequeue(); q != 0 {
		t.Fatalf("got queue %d, want 0", q)
	}
}

func TestSPWFQHierarchy(t *testing.T) {
	// Queue 0 strict; queues 1,2 share by WFQ 1:1.
	s := NewSPWFQ(1, []float64{1, 1, 1})
	shares := drainShares(t, s, func(int) int { return units.MTU }, 3000)
	// Strict queue takes everything when backlogged.
	checkShares(t, shares, []float64{1, 0, 0}, 0.01)

	// Without queue 0 backlog the WFQ group shares equally.
	s2 := NewSPWFQ(1, []float64{1, 1, 1})
	refillLow := func() {
		for q := 1; q <= 2; q++ {
			for s2.QueuePackets(q) < 4 {
				s2.Enqueue(q, mkpkt(units.MTU))
			}
		}
	}
	counts := make([]float64, 3)
	for i := 0; i < 2000; i++ {
		refillLow()
		_, q, ok := s2.Dequeue()
		if !ok {
			t.Fatal("Dequeue failed")
		}
		counts[q]++
	}
	if counts[0] != 0 {
		t.Fatal("strict queue served while empty")
	}
	ratio := counts[1] / (counts[1] + counts[2])
	if ratio < 0.48 || ratio > 0.52 {
		t.Fatalf("WFQ group ratio = %.3f, want ~0.5", ratio)
	}
}

func TestDWRRRoundTime(t *testing.T) {
	var now time.Duration
	s := NewDWRR([]float64{1, 1}, units.MTU,
		WithClock(func() time.Duration { return now }))
	if s.RoundTime() != 0 {
		t.Fatal("initial RoundTime should be 0")
	}
	// Both queues backlogged; serve rounds with 2us per packet.
	for i := 0; i < 20; i++ {
		s.Enqueue(0, mkpkt(units.MTU))
		s.Enqueue(1, mkpkt(units.MTU))
	}
	for i := 0; i < 30; i++ {
		if _, _, ok := s.Dequeue(); !ok {
			t.Fatal("unexpected empty")
		}
		now += 2 * time.Microsecond
	}
	// A full round serves one quantum (1 MTU) from each of 2 queues;
	// the round closes at the dequeue that rotates back to its head, one
	// 2us clock step after it opened, so every sample is 2us. The
	// beta = 0.75 EWMA starts at zero and, after 15 rounds, sits within
	// 2% of the sample.
	rt := s.RoundTime()
	if rt < 1960*time.Nanosecond || rt > 2*time.Microsecond {
		t.Fatalf("RoundTime = %v, want just under 2us", rt)
	}
	if got := s.QuantumBytes(0); got != units.MTU {
		t.Fatalf("QuantumBytes = %d, want %d", got, units.MTU)
	}
}

func TestDWRRIdleReset(t *testing.T) {
	var now time.Duration
	s := NewDWRR([]float64{1, 1}, units.MTU,
		WithClock(func() time.Duration { return now }))
	for i := 0; i < 10; i++ {
		s.Enqueue(0, mkpkt(units.MTU))
		s.Enqueue(1, mkpkt(units.MTU))
	}
	for {
		if _, _, ok := s.Dequeue(); !ok {
			break
		}
		now += 2 * time.Microsecond
	}
	if s.RoundTime() == 0 {
		t.Fatal("expected nonzero round time after busy period")
	}
	// Idle longer than roundIdle, then the port reports the gap.
	now += 10 * time.Microsecond
	s.ObserveIdle(now)
	if s.RoundTime() != 0 {
		t.Fatalf("RoundTime after idle = %v, want 0", s.RoundTime())
	}
}

// Property: for any interleaving of enqueues and dequeues, accounting
// never goes negative and dequeue returns packets previously enqueued.
func TestPropertyAccounting(t *testing.T) {
	f := func(seed int64, ops []bool) bool {
		r := rand.New(rand.NewSource(seed))
		for _, s := range allSchedulers([]float64{1, 2}) {
			seen := make(map[*pkt.Packet]bool)
			for _, enq := range ops {
				if enq || s.TotalPackets() == 0 {
					p := mkpkt(64 + r.Intn(1400))
					seen[p] = true
					s.Enqueue(r.Intn(s.NumQueues()), p)
				} else {
					p, _, ok := s.Dequeue()
					if !ok || !seen[p] {
						return false
					}
					delete(seen, p)
				}
				if s.TotalBytes() < 0 || s.TotalPackets() < 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: DWRR byte shares stay within one quantum of the weighted
// ideal for continuously backlogged queues.
func TestPropertyDWRRShareBound(t *testing.T) {
	f := func(w1, w2 uint8) bool {
		a, b := float64(w1%8+1), float64(w2%8+1)
		s := NewDWRR([]float64{a, b}, units.MTU)
		refill := func() {
			for q := 0; q < 2; q++ {
				for s.QueuePackets(q) < 3 {
					s.Enqueue(q, mkpkt(units.MTU))
				}
			}
		}
		got := make([]float64, 2)
		total := 0.0
		for i := 0; i < 3000; i++ {
			refill()
			p, q, ok := s.Dequeue()
			if !ok {
				return false
			}
			got[q] += float64(p.Size)
			total += float64(p.Size)
		}
		want0 := a / (a + b)
		return got[0]/total > want0-0.05 && got[0]/total < want0+0.05
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestWRRRoundTime(t *testing.T) {
	var now time.Duration
	s := NewWRR([]float64{1, 1}, WithWRRClock(func() time.Duration { return now }))
	if s.RoundTime() != 0 {
		t.Fatal("initial RoundTime should be 0")
	}
	for i := 0; i < 20; i++ {
		s.Enqueue(0, mkpkt(units.MTU))
		s.Enqueue(1, mkpkt(units.MTU))
	}
	for i := 0; i < 30; i++ {
		if _, _, ok := s.Dequeue(); !ok {
			t.Fatal("unexpected empty")
		}
		now += 2 * time.Microsecond
	}
	// One credit per queue per round at 2us per packet: rounds ~4us.
	if rt := s.RoundTime(); rt < time.Microsecond || rt > 10*time.Microsecond {
		t.Fatalf("RoundTime = %v, want a few microseconds", rt)
	}
	if s.QuantumBytes(0) != units.MTU {
		t.Fatalf("QuantumBytes = %d", s.QuantumBytes(0))
	}
}

func TestWRRUnequalCredits(t *testing.T) {
	s := NewWRR([]float64{0.5, 1.5})
	// Normalized to the smallest weight: credits 1 and 3.
	if s.QuantumBytes(0) != units.MTU || s.QuantumBytes(1) != 3*units.MTU {
		t.Fatalf("credits = %d/%d bytes", s.QuantumBytes(0), s.QuantumBytes(1))
	}
}

func TestDWRRQuantumBelowPacketSize(t *testing.T) {
	// A quantum smaller than the packet still makes progress (deficit
	// accumulates over rounds).
	s := NewDWRR([]float64{1, 1}, 100)
	s.Enqueue(0, mkpkt(units.MTU))
	s.Enqueue(1, mkpkt(units.MTU))
	got := 0
	for {
		_, _, ok := s.Dequeue()
		if !ok {
			break
		}
		got++
	}
	if got != 2 {
		t.Fatalf("drained %d packets, want 2", got)
	}
}

func TestSPWFQDegenerateBounds(t *testing.T) {
	// high = 0: pure WFQ behaviour.
	s0 := NewSPWFQ(0, []float64{1, 1})
	shares := drainShares(t, s0, func(int) int { return units.MTU }, 2000)
	checkShares(t, shares, []float64{0.5, 0.5}, 0.02)
	// high > len(weights) clamps: pure SP behaviour.
	sAll := NewSPWFQ(5, []float64{1, 1})
	sAll.Enqueue(1, mkpkt(100))
	sAll.Enqueue(0, mkpkt(100))
	if _, q, _ := sAll.Dequeue(); q != 0 {
		t.Fatal("clamped SP+WFQ should serve queue 0 first")
	}
	// Negative high clamps to 0.
	if s := NewSPWFQ(-1, []float64{1}); s == nil {
		t.Fatal("negative high must be tolerated")
	}
}

func TestFIFOIgnoresQueueIndex(t *testing.T) {
	f := NewFIFO()
	f.Enqueue(99, mkpkt(100)) // any index lands in queue 0
	if f.QueuePackets(0) != 1 {
		t.Fatal("FIFO must map all traffic to queue 0")
	}
}
