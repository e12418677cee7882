package main

import (
	"context"
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// benchmarkDoc is BENCHMARK.json as the driver reads it.
type benchmarkDoc struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json is `benchmark spec` verbatim and inside the contract's
// limits.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(onDisk) != string(want) {
		t.Error("BENCHMARK.json differs from `benchmark spec`; regenerate it")
	}
	var doc benchmarkDoc
	if err := json.Unmarshal(onDisk, &doc); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if n := len(doc.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range doc.Workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	setup, largest := 0.0, 0.0
	for _, m := range doc.EndToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: unit %q bound %v", m.Name, m.Unit, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Bound
		}
		if m.Bound > largest {
			largest = m.Bound
		}
	}
	if setup == 0 || setup != largest {
		t.Errorf("setup_s bound %v must exist and be the largest (%v)", setup, largest)
	}
	if n := len(doc.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, m := range doc.PerLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "higher" && m.Better != "lower") {
			t.Errorf("per-layer %s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
	}
}

// inProcessRep runs a rep in the test process.
func inProcessRep(_ context.Context, cfg repConfig) (*repResult, float64, error) {
	res, err := runRep(cfg)
	if err != nil {
		return nil, 0, err
	}
	return res, res.SetupS, nil
}

// A small run of every workload, plain and traced, emits exactly the
// metric names and units BENCHMARK.json lists; the same seed gives the
// same sim_digest and seed 7 another.
func TestNameContract(t *testing.T) {
	doc, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var contract benchmarkDoc
	if err := json.Unmarshal(doc, &contract); err != nil {
		t.Fatal(err)
	}
	if len(contract.Workloads) != len(workloadSpecs) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(contract.Workloads), len(workloadSpecs))
	}
	e2e, layer := map[string]string{}, map[string]string{}
	for _, m := range contract.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range contract.PerLayer {
		layer[m.Name] = m.Unit
	}

	for _, w := range contract.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			if w.Name == "paper-quick" && testing.Short() {
				t.Skip("the quick experiments cannot be scaled down; several seconds")
			}
			if _, err := findWorkload(w.Name); err != nil {
				t.Fatalf("BENCHMARK.json names a workload the benchmark does not run: %v", err)
			}
			run := func(seed int64, trace bool) *measurement {
				m, err := measure(context.Background(), measureConfig{
					Workload: w.Name, Seed: seed, Trace: trace, Scale: 0.02, OutDir: t.TempDir(),
				}, inProcessRep)
				if err != nil {
					t.Fatal(err)
				}
				if m.Failed != 0 {
					t.Errorf("seed %d trace %v: %d of %d operations failed: %+v", seed, trace, m.Failed, m.Attempted, m.Failures)
				}
				return m
			}
			sameNames := func(m *measurement, want map[string]string) {
				for name, unit := range want {
					if got, ok := m.Metrics[name]; !ok || got.Unit != unit {
						t.Errorf("metric %s: emitted %v (unit %q), contract unit %q", name, ok, got.Unit, unit)
					}
				}
				for name := range m.Metrics {
					if _, ok := want[name]; !ok {
						t.Errorf("metric %s emitted but not in BENCHMARK.json", name)
					}
				}
			}
			plain := run(1, false)
			sameNames(plain, e2e)
			for name, v := range plain.Metrics {
				if v.Value == 0 {
					t.Errorf("end-to-end metric %s is 0", name)
				}
			}
			traced := run(1, true)
			sameNames(traced, layer)
			if traced.Digest != plain.Digest {
				t.Errorf("seed 1 gave sim_digest %s plain and %s traced", plain.Digest, traced.Digest)
			}
			if heldOut := run(7, false); heldOut.Digest == plain.Digest {
				t.Errorf("seeds 1 and 7 gave the same sim_digest %s", plain.Digest)
			}
		})
	}
}
