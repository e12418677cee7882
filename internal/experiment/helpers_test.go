package experiment

import (
	"strings"
	"testing"
	"time"

	"pmsb/internal/stats"
	"pmsb/internal/units"
)

func TestTraceSeriesDecimation(t *testing.T) {
	var tr stats.Trace
	for i := 0; i < 1000; i++ {
		tr.Record(time.Duration(i)*time.Microsecond, float64(i%10))
	}
	// Inject one spike that decimation must preserve.
	tr.Record(500*time.Microsecond, 99)
	s := traceSeries(&tr, "x", 50)
	if len(s.X) > 51 {
		t.Fatalf("decimation produced %d points, want <= 51", len(s.X))
	}
	maxY := 0.0
	for _, y := range s.Y {
		if y > maxY {
			maxY = y
		}
	}
	if maxY != 99 {
		t.Fatalf("decimation lost the peak: max = %v", maxY)
	}
	if s.XUnit != "ms" || s.YUnit != "pkts" {
		t.Fatal("units wrong")
	}
}

func TestTraceSeriesEmpty(t *testing.T) {
	var tr stats.Trace
	s := traceSeries(&tr, "empty", 10)
	if len(s.X) != 0 {
		t.Fatal("empty trace must give empty series")
	}
}

func TestRateSeries(t *testing.T) {
	ts := stats.NewTimeSeries(time.Millisecond)
	ts.Add(0, 1.25e6)                 // 1.25MB in 1ms = 10 Gbps
	ts.Add(2*time.Millisecond, 125e3) // 1 Gbps
	s := rateSeries(ts, "q")
	if len(s.X) != 3 {
		t.Fatalf("points = %d", len(s.X))
	}
	if s.Y[0] != 10 || s.Y[1] != 0 || s.Y[2] != 1 {
		t.Fatalf("rates = %v", s.Y)
	}
	if s.X[1] != 1 {
		t.Fatalf("x values = %v (ms)", s.X)
	}
}

func TestCDFSeries(t *testing.T) {
	var sum stats.Summary
	for i := 1; i <= 100; i++ {
		sum.Add(float64(i) * 1e-6) // 1..100 microseconds
	}
	s := cdfSeries(&sum, "rtt")
	if len(s.X) != 101 {
		t.Fatalf("points = %d", len(s.X))
	}
	if s.Y[0] != 0 || s.Y[100] != 1 {
		t.Fatal("CDF endpoints wrong")
	}
	if s.X[0] < 0.99 || s.X[100] > 100.01 {
		t.Fatalf("X range = [%v, %v] us", s.X[0], s.X[100])
	}
}

func TestMqecnForIdentity(t *testing.T) {
	// The helper encodes the paper's own identity: a 65-packet standard
	// threshold at 10G equals TCN's 78us.
	m := mqecnFor(units.Packets(65), 10*units.Gbps, 0)
	if m.RTT != 78*time.Microsecond {
		t.Fatalf("RTT = %v, want 78us", m.RTT)
	}
	if m.Lambda != 1 {
		t.Fatal("lambda must be 1")
	}
}

func TestFormatHelpers(t *testing.T) {
	if itoa(42) != "42" {
		t.Fatal("itoa")
	}
	if ftoa(3.14159) != "3.1" {
		t.Fatalf("ftoa = %q", ftoa(3.14159))
	}
	if atof("2.5") != 2.5 || atof("junk") != 0 {
		t.Fatal("atof")
	}
	if gbps(10*units.Gbps) != "10.00" {
		t.Fatalf("gbps = %q", gbps(10*units.Gbps))
	}
	if usec(1e-6) != "1.0" {
		t.Fatalf("usec = %q", usec(1e-6))
	}
	if msec(0.0015) != "1.500" {
		t.Fatalf("msec = %q", msec(0.0015))
	}
}

func TestResultJSONAndSeries(t *testing.T) {
	res := &Result{ID: "x", Title: "t", Headers: []string{"a"}}
	res.AddRow("1")
	res.AddSeries(Series{Name: "s", XUnit: "ms", YUnit: "pkts", X: []float64{1}, Y: []float64{2}})
	body, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"id": "x"`, `"series"`, `"xUnit": "ms"`} {
		if !strings.Contains(body, want) {
			t.Fatalf("JSON missing %q:\n%s", want, body)
		}
	}
	tsv := res.TSV()
	if !strings.Contains(tsv, "## series s (pkts vs ms)") {
		t.Fatalf("TSV series header missing:\n%s", tsv)
	}
}

// TestExperimentDeterminism: the same seed must produce byte-identical
// result rows (the repository's core reproducibility promise).
func TestExperimentDeterminism(t *testing.T) {
	for _, id := range []string{"fig3", "fig8", "theorem41"} {
		spec, err := Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		a, err := spec.Run(quick)
		if err != nil {
			t.Fatal(err)
		}
		b, err := spec.Run(quick)
		if err != nil {
			t.Fatal(err)
		}
		if a.TSV() != b.TSV() {
			t.Fatalf("%s not deterministic", id)
		}
	}
}

func TestMergeFCTPoolsSamples(t *testing.T) {
	a := &fctMetrics{completed: 2, total: 3}
	a.all.Add(1)
	a.small.Add(1)
	b := &fctMetrics{completed: 3, total: 3}
	b.all.Add(3)
	b.large.Add(3)
	m := mergeFCT([]*fctMetrics{a, b})
	if m.completed != 5 || m.total != 6 {
		t.Fatalf("counters = %d/%d", m.completed, m.total)
	}
	if m.all.Count() != 2 || m.all.Mean() != 2 {
		t.Fatalf("pooled all = %d samples mean %v", m.all.Count(), m.all.Mean())
	}
	if m.small.Count() != 1 || m.large.Count() != 1 {
		t.Fatal("class samples not pooled")
	}
	// Single-element merge returns the original.
	if mergeFCT([]*fctMetrics{a}) != a {
		t.Fatal("single merge should be identity")
	}
}

func TestOptionsRepeats(t *testing.T) {
	if (Options{}).repeats() != 1 || (Options{Repeats: -2}).repeats() != 1 {
		t.Fatal("default repeats must be 1")
	}
	if (Options{Repeats: 3}).repeats() != 3 {
		t.Fatal("explicit repeats not honoured")
	}
}
