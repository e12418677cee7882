package main

import (
	"math"
	"os"
	"path/filepath"
	"testing"
)

// spread follows Python's statistics.quantiles(v, n=4).
func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := spread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if spread([]float64{3}) != 0 {
		t.Error("one sample has no spread")
	}
}

func TestVerdicts(t *testing.T) {
	wall := metricSpec{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.10}
	ops := metricSpec{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	fct := metricSpec{Name: "fct_mean_us", Unit: "us_sim", Better: "lower", Bound: 0.05}
	steady := func(v float64) metricValue {
		return metricValue{Value: v, Samples: []float64{v * 0.99, v, v * 1.01, v}}
	}
	noisy := func(v float64) metricValue { // IQR/median 1.0 over 4 reps: uncertainty 0.5
		return metricValue{Value: v, Samples: []float64{v * 0.4, v * 0.6, v * 1.4, v * 1.6}}
	}
	for _, c := range []struct {
		name string
		spec metricSpec
		a, b metricValue
		same bool
		want string
	}{
		{"inside the bound", wall, steady(1), steady(1.05), true, "unchanged"},
		{"slower past the bound", wall, steady(1), steady(1.2), true, "REGRESSED"},
		{"faster past the bound", wall, steady(1), steady(0.8), true, "improved"},
		{"higher is better", ops, steady(100), steady(80), true, "REGRESSED"},
		{"noise wider than the bound", wall, noisy(1), steady(1.02), true, "unresolved (spread > bound)"},
		{"worse but noisy", wall, noisy(1), steady(1.3), true, "unresolved (worse, spread > bound)"},
		{"simulated, same seed, equal", fct, steady(133), steady(133), true, "identical"},
		{"simulated, same seed, moved", fct, steady(133), steady(133.001), true, "CHANGED"},
		{"simulated, other seed", fct, steady(133), steady(134), false, "unchanged"},
	} {
		if got := verdictFor(c.spec, c.a, c.b, c.same); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareReports(t *testing.T) {
	mk := func(wall float64, digest string) *report {
		m := &measurement{Workload: "fattree8-serial", Digest: digest, Attempted: 10, Metrics: map[string]metricValue{}}
		for _, spec := range endToEnd {
			m.Metrics[spec.Name] = metricValue{Value: 1, Unit: spec.Unit, Samples: []float64{1, 1, 1}}
		}
		m.Metrics["wall_s"] = metricValue{Value: wall, Unit: "s", Samples: []float64{wall, wall, wall}}
		tr := &measurement{Workload: "fattree8-serial", Metrics: map[string]metricValue{"sim.events": {Value: 100}}}
		return &report{
			Provenance: provenance{NProc: 2, GOMAXPROCS: 2, GoVersion: "go1.24", CPUModel: "x"},
			Seed:       1,
			Plain:      map[string]*measurement{"fattree8-serial": m},
			Traced:     map[string]*measurement{"fattree8-serial": tr},
		}
	}
	out, err := os.Create(filepath.Join(t.TempDir(), "compare.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()

	if n := compareReports(out, mk(1, "aa"), mk(1.02, "aa"), false); n != 0 {
		t.Errorf("like reports: %d problems", n)
	}
	if n := compareReports(out, mk(1, "aa"), mk(1.5, "aa"), false); n != 1 {
		t.Errorf("a 50%% slower wall_s: %d problems, want 1", n)
	}
	if n := compareReports(out, mk(1, "aa"), mk(1, "bb"), false); n != 1 {
		t.Errorf("a changed sim_digest at the same seed: %d problems, want 1", n)
	}
	exact := mk(1, "aa")
	exact.Traced["fattree8-serial"].Metrics["sim.events"] = metricValue{Value: 101}
	if n := compareReports(out, mk(1, "aa"), exact, false); n != 1 {
		t.Errorf("a changed exact count: %d problems, want 1", n)
	}
	other := mk(1, "aa")
	other.Provenance.NProc = 64
	if n := compareReports(out, mk(1, "aa"), other, false); n != 1 {
		t.Errorf("another machine without -force: %d problems, want a refusal", n)
	}
	if n := compareReports(out, mk(1, "aa"), other, true); n != 0 {
		t.Errorf("another machine with -force: %d problems", n)
	}
}
