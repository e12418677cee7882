package stats

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"pmsb/internal/units"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	if s.Count() != 0 || s.Mean() != 0 || s.Percentile(50) != 0 || minSample(&s) != 0 || s.Max() != 0 {
		t.Fatal("zero-value Summary should answer zeros")
	}
	for _, v := range []float64{5, 1, 3, 2, 4} {
		s.Add(v)
	}
	if s.Count() != 5 {
		t.Fatalf("Count = %d", s.Count())
	}
	if s.Mean() != 3 {
		t.Fatalf("Mean = %v", s.Mean())
	}
	if minSample(&s) != 1 || s.Max() != 5 {
		t.Fatalf("Min/Max = %v/%v", minSample(&s), s.Max())
	}
	if got := s.Percentile(50); got != 3 {
		t.Fatalf("P50 = %v", got)
	}
	if got := s.Percentile(0); got != 1 {
		t.Fatalf("P0 = %v", got)
	}
	if got := s.Percentile(100); got != 5 {
		t.Fatalf("P100 = %v", got)
	}
	// Interpolated percentile.
	if got := s.Percentile(25); got != 2 {
		t.Fatalf("P25 = %v, want 2", got)
	}
}

func TestSummaryAddDuration(t *testing.T) {
	var s Summary
	s.AddDuration(1500 * time.Millisecond)
	if s.Mean() != 1.5 {
		t.Fatalf("Mean = %v, want 1.5s", s.Mean())
	}
}

func TestSummaryAddAfterPercentile(t *testing.T) {
	var s Summary
	s.Add(1)
	_ = s.Percentile(50)
	s.Add(100)
	if s.Max() != 100 {
		t.Fatal("Add after sort must re-sort")
	}
}

func TestCDF(t *testing.T) {
	var s Summary
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	cdf := s.CDF(11)
	if len(cdf) != 11 {
		t.Fatalf("len = %d", len(cdf))
	}
	if cdf[0].P != 0 || cdf[10].P != 1 {
		t.Fatal("CDF endpoints wrong")
	}
	if cdf[0].X != 1 || cdf[10].X != 100 {
		t.Fatalf("CDF X endpoints = %v, %v", cdf[0].X, cdf[10].X)
	}
	if s.CDF(1) != nil {
		t.Fatal("CDF with <2 points should be nil")
	}
}

// Property: percentiles are monotone in p and bounded by min/max.
func TestPropertyPercentileMonotone(t *testing.T) {
	f := func(raw []float64, aRaw, bRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		var s Summary
		for _, v := range raw {
			s.Add(v)
		}
		a := float64(aRaw) / 255 * 100
		b := float64(bRaw) / 255 * 100
		if a > b {
			a, b = b, a
		}
		pa, pb := s.Percentile(a), s.Percentile(b)
		return pa <= pb && pa >= minSample(&s) && pb <= s.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeSeries(t *testing.T) {
	ts := NewTimeSeries(time.Millisecond)
	ts.Add(0, 1000)
	ts.Add(500*time.Microsecond, 500)
	ts.Add(2500*time.Microsecond, 250)
	if ts.Bins() != 3 {
		t.Fatalf("Bins = %d", ts.Bins())
	}
	if ts.Value(0) != 1500 || ts.Value(1) != 0 || ts.Value(2) != 250 {
		t.Fatalf("bin values %v %v %v", ts.Value(0), ts.Value(1), ts.Value(2))
	}
	if ts.Value(-1) != 0 || ts.Value(100) != 0 {
		t.Fatal("out-of-range bins must be 0")
	}
	// 1500 bytes in 1ms = 12 Mbps.
	if got := ts.Rate(0); got != 12*units.Mbps {
		t.Fatalf("Rate(0) = %v", got)
	}
	// MeanRate across 3 bins: 1750B over 3ms.
	want := units.RateOf(1750, 3*time.Millisecond)
	if got := ts.MeanRate(0, 3); got != want {
		t.Fatalf("MeanRate = %v, want %v", got, want)
	}
	if ts.BinWidth() != time.Millisecond {
		t.Fatal("BinWidth mismatch")
	}
}

func TestTimeSeriesDefaultBin(t *testing.T) {
	ts := NewTimeSeries(0)
	if ts.BinWidth() != time.Millisecond {
		t.Fatal("zero bin width should default to 1ms")
	}
}

func TestTrace(t *testing.T) {
	var tr Trace
	if tr.Max() != 0 || tr.MeanAfter(0) != 0 {
		t.Fatal("empty trace should answer zeros")
	}
	tr.Record(0, 10)
	tr.Record(time.Second, 50)
	tr.Record(2*time.Second, 30)
	if tr.Max() != 50 {
		t.Fatalf("Max = %v", tr.Max())
	}
	if tr.MaxAfter(1500*time.Millisecond) != 30 {
		t.Fatalf("MaxAfter = %v", tr.MaxAfter(1500*time.Millisecond))
	}
	if tr.MeanAfter(time.Second) != 40 {
		t.Fatalf("MeanAfter = %v", tr.MeanAfter(time.Second))
	}
	if len(tr.Points()) != 3 {
		t.Fatal("Points length wrong")
	}
}

// Property: TimeSeries.MeanRate over the whole series equals RateOf the
// total bytes.
func TestPropertyMeanRateTotal(t *testing.T) {
	f := func(vals []uint16) bool {
		if len(vals) == 0 {
			return true
		}
		ts := NewTimeSeries(time.Millisecond)
		var total int64
		for i, v := range vals {
			ts.Add(time.Duration(i)*time.Millisecond, float64(v))
			total += int64(v)
		}
		want := units.RateOf(total, time.Duration(len(vals))*time.Millisecond)
		return ts.MeanRate(0, len(vals)) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestJainIndex(t *testing.T) {
	if got := JainIndex(nil); got != 0 {
		t.Fatalf("empty = %v", got)
	}
	if got := JainIndex([]float64{0, 0}); got != 0 {
		t.Fatalf("all-zero = %v", got)
	}
	if got := JainIndex([]float64{5, 5, 5}); got != 1 {
		t.Fatalf("equal allocations = %v, want 1", got)
	}
	// One user hogging everything among n users: index = 1/n.
	if got := JainIndex([]float64{10, 0, 0, 0}); got != 0.25 {
		t.Fatalf("single hog = %v, want 0.25", got)
	}
}

func TestWeightedJainIndex(t *testing.T) {
	// Allocations exactly proportional to weights: index 1.
	if got := WeightedJainIndex([]float64{2, 4, 6}, []float64{1, 2, 3}); got != 1 {
		t.Fatalf("proportional = %v, want 1", got)
	}
	if got := WeightedJainIndex([]float64{1, 2}, []float64{1}); got != 0 {
		t.Fatal("length mismatch must return 0")
	}
	if got := WeightedJainIndex([]float64{1, 2}, []float64{1, 0}); got != 0 {
		t.Fatal("non-positive weight must return 0")
	}
	// Violated weighted sharing scores below equal-share compliance.
	violated := WeightedJainIndex([]float64{2.5, 7.5}, []float64{1, 1})
	if violated >= 1 {
		t.Fatalf("violation should score < 1, got %v", violated)
	}
}

// Property: Jain index is scale-invariant and within (0, 1].
func TestPropertyJainBounds(t *testing.T) {
	f := func(raw []uint8, scaleRaw uint8) bool {
		xs := make([]float64, 0, len(raw))
		positive := false
		for _, v := range raw {
			xs = append(xs, float64(v))
			if v > 0 {
				positive = true
			}
		}
		if !positive || len(xs) == 0 {
			return true
		}
		j := JainIndex(xs)
		if j <= 0 || j > 1+1e-12 {
			return false
		}
		scale := float64(scaleRaw%9) + 1
		scaled := make([]float64, len(xs))
		for i := range xs {
			scaled[i] = xs[i] * scale
		}
		return math.Abs(JainIndex(scaled)-j) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTraceMinAfter(t *testing.T) {
	var tr Trace
	if tr.MinAfter(0) != 0 {
		t.Fatal("empty trace MinAfter should be 0")
	}
	tr.Record(0, 50)
	tr.Record(time.Second, 10)
	tr.Record(2*time.Second, 30)
	if tr.MinAfter(0) != 10 {
		t.Fatalf("MinAfter(0) = %v", tr.MinAfter(0))
	}
	if tr.MinAfter(1500*time.Millisecond) != 30 {
		t.Fatalf("MinAfter(1.5s) = %v", tr.MinAfter(1500*time.Millisecond))
	}
	if tr.MinAfter(time.Hour) != 0 {
		t.Fatal("MinAfter past the trace should be 0")
	}
}

func TestSummarySamplesCopy(t *testing.T) {
	var s Summary
	s.Add(3)
	s.Add(1)
	got := s.Samples()
	if len(got) != 2 {
		t.Fatalf("Samples = %v", got)
	}
	got[0] = 99 // must not corrupt the summary
	if s.Max() == 99 {
		t.Fatal("Samples must return a copy")
	}
}

// TestPercentileEdgeCases pins the documented interpolation rule and
// its boundary behaviour: empty and NaN inputs answer 0, a single
// sample answers every p, p=0/p=100 answer min/max exactly, and
// interior percentiles interpolate linearly between the closest ranks.
func TestPercentileEdgeCases(t *testing.T) {
	cases := []struct {
		name    string
		samples []float64
		p       float64
		want    float64
	}{
		{"empty", nil, 50, 0},
		{"empty p0", nil, 0, 0},
		{"single p0", []float64{7}, 0, 7},
		{"single p50", []float64{7}, 50, 7},
		{"single p100", []float64{7}, 100, 7},
		{"nan p", []float64{1, 2, 3}, math.NaN(), 0},
		{"negative p clamps to min", []float64{1, 2, 3}, -10, 1},
		{"p over 100 clamps to max", []float64{1, 2, 3}, 250, 3},
		{"p0 is min", []float64{3, 1, 2}, 0, 1},
		{"p100 is max", []float64{3, 1, 2}, 100, 3},
		{"median of two interpolates", []float64{10, 20}, 50, 15},
		{"p25 of two interpolates", []float64{10, 20}, 25, 12.5},
		{"median of odd count is exact rank", []float64{1, 2, 9}, 50, 2},
		{"p75 of four", []float64{1, 2, 3, 4}, 75, 3.25},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var s Summary
			for _, v := range tc.samples {
				s.Add(v)
			}
			got := s.Percentile(tc.p)
			if math.Abs(got-tc.want) > 1e-12 {
				t.Fatalf("Percentile(%v) of %v = %v, want %v", tc.p, tc.samples, got, tc.want)
			}
		})
	}
}

// TestCDFEdgeCases: a CDF needs both ends, so degenerate requests
// return nil; one sample yields a vertical CDF.
func TestCDFEdgeCases(t *testing.T) {
	var empty Summary
	if got := empty.CDF(11); got != nil {
		t.Fatalf("empty CDF = %v, want nil", got)
	}
	var s Summary
	s.Add(5)
	if got := s.CDF(1); got != nil {
		t.Fatalf("CDF(1) = %v, want nil", got)
	}
	if got := s.CDF(0); got != nil {
		t.Fatalf("CDF(0) = %v, want nil", got)
	}
	pts := s.CDF(3)
	if len(pts) != 3 {
		t.Fatalf("CDF(3) has %d points", len(pts))
	}
	for _, p := range pts {
		if p.X != 5 {
			t.Fatalf("single-sample CDF point %+v, want X=5", p)
		}
	}
	if pts[0].P != 0 || pts[2].P != 1 {
		t.Fatalf("CDF must span P=0..1, got %+v", pts)
	}
}

// TestTimeSeriesValueBounds: out-of-range bins answer 0 instead of
// panicking, and Add grows the bin slice monotonically.
func TestTimeSeriesValueBounds(t *testing.T) {
	ts := NewTimeSeries(time.Millisecond)
	if got := ts.Value(-1); got != 0 {
		t.Fatalf("Value(-1) = %v", got)
	}
	if got := ts.Value(99); got != 0 {
		t.Fatalf("Value(99) = %v", got)
	}
	ts.Add(2500*time.Microsecond, 10) // bin 2
	if ts.Bins() != 3 {
		t.Fatalf("Bins() = %d, want 3", ts.Bins())
	}
	if got := ts.Value(2); got != 10 {
		t.Fatalf("Value(2) = %v, want 10", got)
	}
	if got := ts.Value(0); got != 0 {
		t.Fatalf("Value(0) = %v, want 0 (untouched bin)", got)
	}
}

// TestTraceAfterHelpers covers the warmup-windowed trace reductions.
func TestTraceAfterHelpers(t *testing.T) {
	var tr Trace
	if tr.Max() != 0 || tr.MeanAfter(0) != 0 || tr.MinAfter(0) != 0 {
		t.Fatal("empty trace reductions must be 0")
	}
	tr.Record(1*time.Millisecond, 5)
	tr.Record(2*time.Millisecond, 9)
	tr.Record(3*time.Millisecond, 3)
	if got := tr.MaxAfter(2 * time.Millisecond); got != 9 {
		t.Fatalf("MaxAfter = %v, want 9", got)
	}
	if got := tr.MinAfter(2 * time.Millisecond); got != 3 {
		t.Fatalf("MinAfter = %v, want 3", got)
	}
	if got := tr.MeanAfter(2 * time.Millisecond); got != 6 {
		t.Fatalf("MeanAfter = %v, want 6", got)
	}
	if got := tr.MeanAfter(10 * time.Millisecond); got != 0 {
		t.Fatalf("MeanAfter past end = %v, want 0", got)
	}
}

// minSample is the smallest sample (0 with none).
func minSample(s *Summary) float64 {
	if len(s.samples) == 0 {
		return 0
	}
	s.sort()
	return s.samples[0]
}
