// Package stats provides the measurement primitives the experiments
// need: percentile summaries (FCT, RTT), CDF extraction for
// distribution plots, time-binned throughput series, and event-driven
// occupancy traces for queue-length-versus-time figures.
package stats

import (
	"math"
	"sort"
	"time"

	"pmsb/internal/units"
)

// Summary accumulates scalar samples and answers order statistics.
// The zero value is ready to use.
type Summary struct {
	samples []float64
	sorted  bool
	sum     float64
}

// Add appends a sample.
func (s *Summary) Add(v float64) {
	s.samples = append(s.samples, v)
	s.sorted = false
	s.sum += v
}

// AddDuration appends a duration sample in seconds.
func (s *Summary) AddDuration(d time.Duration) {
	s.Add(d.Seconds())
}

// Count returns the number of samples.
func (s *Summary) Count() int { return len(s.samples) }

// Mean returns the arithmetic mean (0 with no samples).
func (s *Summary) Mean() float64 {
	if len(s.samples) == 0 {
		return 0
	}
	return s.sum / float64(len(s.samples))
}

// Max returns the largest sample (0 with no samples).
func (s *Summary) Max() float64 {
	if len(s.samples) == 0 {
		return 0
	}
	s.sort()
	return s.samples[len(s.samples)-1]
}

// Percentile returns the p-th percentile (p in [0,100]) by linear
// interpolation between the two closest ranks: the sorted samples are
// treated as quantiles at rank i/(n-1), and p falling between two ranks
// blends them proportionally (the same rule as numpy's default). p <= 0
// yields the minimum, p >= 100 the maximum, and a single sample answers
// every p. Returns 0 with no samples or a NaN p.
func (s *Summary) Percentile(p float64) float64 {
	n := len(s.samples)
	if n == 0 || math.IsNaN(p) {
		return 0
	}
	s.sort()
	if p <= 0 {
		return s.samples[0]
	}
	if p >= 100 {
		return s.samples[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s.samples[lo]
	}
	frac := rank - float64(lo)
	return s.samples[lo]*(1-frac) + s.samples[hi]*frac
}

// Samples returns a copy of the raw samples (for pooling summaries).
func (s *Summary) Samples() []float64 {
	out := make([]float64, len(s.samples))
	copy(out, s.samples)
	return out
}

// CDFPoint is one (value, cumulative probability) pair.
type CDFPoint struct {
	X float64
	P float64
}

// CDF returns points evenly spaced quantiles of the sample set, from
// the minimum (P=0) to the maximum (P=1) inclusive. It returns nil with
// no samples or fewer than 2 requested points (a CDF needs both ends);
// a single sample yields a degenerate vertical CDF at that value.
func (s *Summary) CDF(points int) []CDFPoint {
	if len(s.samples) == 0 || points < 2 {
		return nil
	}
	s.sort()
	out := make([]CDFPoint, 0, points)
	for i := 0; i < points; i++ {
		p := float64(i) / float64(points-1)
		out = append(out, CDFPoint{X: s.Percentile(p * 100), P: p})
	}
	return out
}

func (s *Summary) sort() {
	if !s.sorted {
		sort.Float64s(s.samples)
		s.sorted = true
	}
}

// TimeSeries accumulates a value (e.g. bytes) into fixed-width time
// bins; Rate converts a byte bin into an average rate.
type TimeSeries struct {
	bin  time.Duration
	bins []float64
}

// NewTimeSeries returns a series with the given bin width.
func NewTimeSeries(bin time.Duration) *TimeSeries {
	if bin <= 0 {
		bin = time.Millisecond
	}
	return &TimeSeries{bin: bin}
}

// Add accumulates v into the bin containing time t.
func (ts *TimeSeries) Add(t time.Duration, v float64) {
	i := int(t / ts.bin)
	for len(ts.bins) <= i {
		ts.bins = append(ts.bins, 0)
	}
	ts.bins[i] += v
}

// Bins returns the number of bins touched so far.
func (ts *TimeSeries) Bins() int { return len(ts.bins) }

// Value returns the accumulated value of bin i (0 if untouched).
func (ts *TimeSeries) Value(i int) float64 {
	if i < 0 || i >= len(ts.bins) {
		return 0
	}
	return ts.bins[i]
}

// BinWidth returns the bin width.
func (ts *TimeSeries) BinWidth() time.Duration { return ts.bin }

// Rate interprets bin i as bytes and returns the average rate.
func (ts *TimeSeries) Rate(i int) units.Rate {
	return units.RateOf(int64(ts.Value(i)), ts.bin)
}

// MeanRate interprets bins [from, to) as bytes and returns the average
// rate across them.
func (ts *TimeSeries) MeanRate(from, to int) units.Rate {
	if to > len(ts.bins) {
		to = len(ts.bins)
	}
	if from < 0 {
		from = 0
	}
	if from >= to {
		return 0
	}
	var sum float64
	for i := from; i < to; i++ {
		sum += ts.bins[i]
	}
	return units.RateOf(int64(sum), ts.bin*time.Duration(to-from))
}

// JainIndex returns Jain's fairness index of the given allocations:
// (sum x)^2 / (n * sum x^2), in (0, 1] with 1 meaning perfectly equal.
// Zero-length or all-zero input yields 0.
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// WeightedJainIndex normalizes each allocation by its weight before
// computing Jain's index, measuring conformance to weighted fair
// sharing (the paper's scheduling-policy metric).
func WeightedJainIndex(xs, weights []float64) float64 {
	if len(xs) != len(weights) {
		return 0
	}
	norm := make([]float64, len(xs))
	for i := range xs {
		if weights[i] <= 0 {
			return 0
		}
		norm[i] = xs[i] / weights[i]
	}
	return JainIndex(norm)
}

// TracePoint is one (time, value) observation.
type TracePoint struct {
	T time.Duration
	V float64
}

// Trace records a value over time (queue occupancy, window size).
type Trace struct {
	points []TracePoint
}

// Record appends an observation.
func (tr *Trace) Record(t time.Duration, v float64) {
	tr.points = append(tr.points, TracePoint{T: t, V: v})
}

// Points returns all observations in record order.
func (tr *Trace) Points() []TracePoint { return tr.points }

// Max returns the largest recorded value (0 when empty).
func (tr *Trace) Max() float64 {
	m := 0.0
	for _, p := range tr.points {
		if p.V > m {
			m = p.V
		}
	}
	return m
}

// MaxAfter returns the largest value recorded at or after t.
func (tr *Trace) MaxAfter(t time.Duration) float64 {
	m := 0.0
	for _, p := range tr.points {
		if p.T >= t && p.V > m {
			m = p.V
		}
	}
	return m
}

// MinAfter returns the smallest value recorded at or after t (0 when
// nothing was recorded there).
func (tr *Trace) MinAfter(t time.Duration) float64 {
	m := math.Inf(1)
	found := false
	for _, p := range tr.points {
		if p.T >= t && p.V < m {
			m = p.V
			found = true
		}
	}
	if !found {
		return 0
	}
	return m
}

// MeanAfter returns the mean value recorded at or after t.
func (tr *Trace) MeanAfter(t time.Duration) float64 {
	var sum float64
	var n int
	for _, p := range tr.points {
		if p.T >= t {
			sum += p.V
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
