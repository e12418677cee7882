package workload

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"pmsb/internal/units"
)

func TestWebSearchShape(t *testing.T) {
	d := WebSearch()
	if d.Name() != "websearch" {
		t.Fatal("name")
	}
	r := rand.New(rand.NewSource(1))
	n := 200_000
	var small, large int
	var sum float64
	for i := 0; i < n; i++ {
		s := d.Sample(r)
		if s < 1 {
			t.Fatal("non-positive flow size")
		}
		switch Classify(s) {
		case Small:
			small++
		case Large:
			large++
		}
		sum += float64(s)
	}
	// The paper: small flows ~60% of flows. Large flows are a few
	// percent of flows in the web-search CDF (the bulk of *bytes*).
	smallFrac := float64(small) / float64(n)
	largeFrac := float64(large) / float64(n)
	if smallFrac < 0.5 || smallFrac > 0.7 {
		t.Fatalf("small fraction = %.3f, want ~0.6", smallFrac)
	}
	if largeFrac < 0.02 || largeFrac > 0.15 {
		t.Fatalf("large fraction = %.3f, want a few percent", largeFrac)
	}
	// Empirical mean should match the analytic mean within a few %.
	mean := sum / float64(n)
	if mean < 0.95*d.Mean() || mean > 1.05*d.Mean() {
		t.Fatalf("sample mean %.0f vs analytic %.0f", mean, d.Mean())
	}
}

func TestFixed(t *testing.T) {
	d := Fixed(1234)
	r := rand.New(rand.NewSource(1))
	if d.Sample(r) != 1234 || d.Mean() != 1234 || d.Name() != "fixed" {
		t.Fatal("fixed distribution broken")
	}
}

func TestClassify(t *testing.T) {
	tests := []struct {
		size int64
		want SizeClass
	}{
		{1, Small},
		{100_000, Small},
		{100_001, Medium},
		{9_999_999, Medium},
		{10_000_000, Large},
		{1_000_000_000, Large},
	}
	for _, tt := range tests {
		if got := Classify(tt.size); got != tt.want {
			t.Errorf("Classify(%d) = %v, want %v", tt.size, got, tt.want)
		}
	}
	if Small.String() != "small" || Medium.String() != "medium" || Large.String() != "large" {
		t.Fatal("SizeClass.String broken")
	}
	if SizeClass(99).String() != "unknown" {
		t.Fatal("unknown SizeClass should stringify as unknown")
	}
}

func TestPoissonDeterministic(t *testing.T) {
	cfg := PoissonConfig{
		Load: 0.5, LinkRate: 10 * units.Gbps, Hosts: 48,
		Dist: WebSearch(), Services: 8, NumFlows: 100, Seed: 42,
	}
	a := Poisson(cfg)
	b := Poisson(cfg)
	if len(a) != 100 || len(b) != 100 {
		t.Fatalf("lengths %d/%d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace not deterministic at flow %d", i)
		}
	}
}

func TestPoissonProperties(t *testing.T) {
	cfg := PoissonConfig{
		Load: 0.5, LinkRate: 10 * units.Gbps, Hosts: 48,
		Dist: WebSearch(), Services: 8, NumFlows: 5000, Seed: 7,
	}
	flows := Poisson(cfg)
	var last time.Duration
	serviceCount := make([]int, 8)
	for i, f := range flows {
		if f.Start < last {
			t.Fatalf("arrivals not monotone at %d", i)
		}
		last = f.Start
		if f.Src == f.Dst {
			t.Fatalf("flow %d has src == dst", i)
		}
		if f.Src < 0 || f.Src >= 48 || f.Dst < 0 || f.Dst >= 48 {
			t.Fatalf("flow %d endpoints out of range", i)
		}
		if f.Service < 0 || f.Service >= 8 {
			t.Fatalf("flow %d service out of range", i)
		}
		serviceCount[f.Service]++
	}
	// Round-robin classification: services within 1 of each other.
	for s := 1; s < 8; s++ {
		if diff := serviceCount[s] - serviceCount[0]; diff < -1 || diff > 1 {
			t.Fatalf("service %d count %d vs %d — not even", s, serviceCount[s], serviceCount[0])
		}
	}
}

func TestPoissonLoadCalibration(t *testing.T) {
	// The offered bytes per second per host should approximate
	// load x link rate.
	cfg := PoissonConfig{
		Load: 0.4, LinkRate: 10 * units.Gbps, Hosts: 16,
		Dist: WebSearch(), Services: 8, NumFlows: 20000, Seed: 3,
	}
	flows := Poisson(cfg)
	var total float64
	for _, f := range flows {
		total += float64(f.Size)
	}
	dur := flows[len(flows)-1].Start.Seconds()
	perHost := total / dur / float64(cfg.Hosts)
	want := cfg.Load * float64(cfg.LinkRate) / 8
	if perHost < 0.8*want || perHost > 1.2*want {
		t.Fatalf("offered per-host load %.3g B/s, want ~%.3g", perHost, want)
	}
}

func TestPoissonDegenerateInputs(t *testing.T) {
	if Poisson(PoissonConfig{}) != nil {
		t.Fatal("zero config should yield nil")
	}
	if Poisson(PoissonConfig{Load: 0.5, LinkRate: units.Gbps, Hosts: 1, Dist: Fixed(1), NumFlows: 10}) != nil {
		t.Fatal("single host cannot generate flows")
	}
}

// Property: samples always lie within the distribution's support.
func TestPropertyEmpiricalSupport(t *testing.T) {
	d := WebSearch()
	maxBytes := int64(20000 * units.MSS)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < 100; i++ {
			s := d.Sample(r)
			if s < 1 || s > maxBytes {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
