package experiment

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// The golden gate: every registered experiment's quick table at seed 1
// is pinned by digest, so a refactor of how experiments build and drive
// their fabrics cannot move a number unnoticed. A digest covers the
// result's ID, headers and rows. Notes and verdicts, which TSV prints
// as '#' lines under the rows, are left out: TestPaperClaims checks
// the verdicts. No table byte depends on the wall clock; the wall times
// of the manifest's # summary block are the only bytes that vary from
// run to run. When a change is meant to move a table, rerun the test
// and paste the digests its failure messages print.

func tableDigest(r *Result) string {
	h := sha256.New()
	fmt.Fprintln(h, r.ID)
	fmt.Fprintln(h, strings.Join(r.Headers, "\t"))
	for _, row := range r.Rows {
		fmt.Fprintln(h, strings.Join(row, "\t"))
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

var goldenSerial = map[string]string{
	"ablation-average":     "35a08afa643c2876bbef795f",
	"ablation-filter":      "faf64d61560fa23dd2572f3b",
	"ablation-markpoint":   "e2363c8b76b61ee0abdacb3e",
	"ablation-portk":       "5e1defce8e21142fec9b7923",
	"ablation-rttthresh":   "db3cf92c03893a046de4f5b2",
	"analysis-validation":  "032daf21233d4de1670d7f2f",
	"calibrate":            "392081096fc2368c7fae68ef",
	"fattree":              "b0b889cd061fa141dc91867a",
	"fattree-incast":       "2faef650f5e373ed97d6b0e5",
	"fattree32":            "001bb60fa6c4fbea92faf114",
	"fct-dwrr":             "87c84557405ab5be55b6259a",
	"fct-weighted":         "abf0bbc61397e77199db31fa",
	"fct-wfq":              "3cc4534ef8102304d0a17cba",
	"fig1":                 "72ccf12d19abca41dcdccf77",
	"fig10":                "c968490d942c665b0f2e337c",
	"fig11":                "b1636579e63efda86b0a2e5a",
	"fig12":                "9ed9488542ed62aecf5800d2",
	"fig13":                "96aadf1520b8c705cdf488c0",
	"fig14":                "cb069c18e10711dd8cfe37b4",
	"fig15":                "23b966627d4bda7fb0e3c658",
	"fig16":                "009233557b8d92307ce80143",
	"fig17":                "97318d5962d382b0dad5fbcc",
	"fig18":                "344e1e912d7d16e51515f814",
	"fig19":                "ca8aaf6f06d5253d52cf8660",
	"fig2":                 "b3a9ed7670a0aa98b4f4b103",
	"fig20":                "9a740d6a022f216844413bee",
	"fig21":                "9b8fddbfbab909ac763b5214",
	"fig22":                "e8e8ca69332936fa4bee1e4e",
	"fig23":                "9e7a7ed8f2c33af7834559dd",
	"fig24":                "c39a9b54db1f67f1e060de8f",
	"fig25":                "826bd48a524a1555421c99e2",
	"fig26":                "65c542e3da168242ded78187",
	"fig27":                "67544b61208a40f85638c31a",
	"fig3":                 "857d01a8308b7855488cf560",
	"fig4":                 "46024eb3301c14f788476734",
	"fig5":                 "e91b4f68989eea54cc050bbf",
	"fig6":                 "4d501e2aaebd3c0bfc043ee9",
	"fig7":                 "a5788f7d784735c57baddac2",
	"fig8":                 "bedbb5867f9b0f41729bd326",
	"fig8-wrr":             "8e0b573e15a6b978aeb49928",
	"fig9":                 "bd960d30320e09f9cef133a3",
	"flow-scale":           "6e082f0e57bfab8e5002e5ad",
	"incast":               "f19ee1a314eeb5958ba8259e",
	"pfc":                  "48768c87b78bb2792186cc11",
	"pool":                 "e7ac5cc86b09dcc0fad8f49c",
	"scenario-fattree":     "e5f527ce3714dc5bf8d34b06",
	"scenario-incast":      "04295fe270053a8932af2944",
	"scenario-permutation": "e4dbb54305894016c5aff708",
	"table1":               "1d6e9b8b967af8e48e570bc5",
	"theorem41":            "1db20c60515d9dd05f9da38a",
}

// fluidEngines names the only experiments whose manifest row may name
// the flow-level engine, with the engine column each must show:
// calibrate runs it beside the packet engine, flow-scale alone. Every
// other experiment's engine is the packet engine or none.
var fluidEngines = map[string]string{"calibrate": "packet+flow", "flow-scale": "flow"}

// checkGolden runs every registered experiment through RunMany at opt.
// An experiment that declares the option (declares(spec)) must match
// its pin in golden and its manifest row must show the option applied;
// any other must reproduce its serial table and its row must not show
// it — so the Randomized declaration is held to what the run did
// (MaxShards has its own law, TestGoldenTablesSharded). Every row must
// also name the engine fluidEngines allows, and every result must state
// as many verdicts as claimVerdicts pins (none if unlisted). golden
// pins exactly the declaring experiments. Under -race only the
// declaring experiments run: the others repeat serial code the serial
// pass already races, and the full check runs without -race.
func checkGolden(t *testing.T, name string, golden map[string]string, opt Options,
	declares func(Spec) bool, applied func(ExperimentReport) bool) {
	t.Helper()
	specs := List()
	if raceDetector {
		specs = slices.DeleteFunc(specs, func(s Spec) bool { return !declares(s) })
	}
	results, m, err := RunMany(specs, opt, runtime.NumCPU())
	if err != nil {
		t.Fatal(err)
	}
	pinned := 0
	for i, spec := range specs {
		want, pins := goldenSerial[spec.ID], name+"[serial]"
		if declares(spec) {
			want, pins = golden[spec.ID], name
			pinned++
		}
		if got := tableDigest(results[i]); got != want {
			t.Errorf("%s table moved: %s[%q] = %q, pinned %q", spec.ID, pins, spec.ID, got, want)
		}
		if got, want := len(results[i].Verdicts), claimVerdicts[spec.ID]; got != want {
			t.Errorf("%s states %d verdicts, claimVerdicts pins %d", spec.ID, got, want)
		}
		row := m.Experiments[i]
		if applied(row) != declares(spec) {
			t.Errorf("%s: manifest row engine %q shards %d contradicts its declaration (declared %v)",
				spec.ID, row.Engine, row.Shards, declares(spec))
		}
		if want, ok := fluidEngines[spec.ID]; ok && row.Engine != want || !ok && strings.Contains(row.Engine, "flow") {
			t.Errorf("%s: manifest row names engine %q; only calibrate (packet+flow) and flow-scale (flow) run the flow engine",
				spec.ID, row.Engine)
		}
	}
	if pinned != len(golden) {
		t.Errorf("%s pins %d experiments, the registry declares %d", name, len(golden), pinned)
	}
}

func TestGoldenTables(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	all := func(Spec) bool { return true }
	checkGolden(t, "goldenSerial", goldenSerial, Options{Quick: true, Seed: 1}, all,
		func(row ExperimentReport) bool { return row.Shards <= 1 })
}

// TestGoldenTablesSharded holds the sharding law: -shards never changes
// an answer. Every experiment that declares MaxShards prints its serial
// table at 2 and at 4 shards — goldenSerial's pin, once the fat-tree's
// printed `shards` row is read as the serial 1 — and its manifest row
// shows min(Shards, MaxShards). Any other experiment gets Shards 1 from
// RunMany, so running it would repeat TestGoldenTables; fig8 alone
// stands witness that such a row reads 1 shard.
func TestGoldenTablesSharded(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the sharding experiments at 2 and 4 shards")
	}
	specs := slices.DeleteFunc(List(), func(s Spec) bool { return s.MaxShards == 0 && s.ID != "fig8" })
	for _, shards := range []int{2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			results, m, err := RunMany(specs, Options{Quick: true, Seed: 1, Shards: shards}, runtime.NumCPU())
			if err != nil {
				t.Fatal(err)
			}
			declared, witnesses := 0, 0
			for i, spec := range specs {
				width := 1
				if spec.MaxShards > 0 {
					width = min(shards, spec.MaxShards)
					declared++
				} else {
					witnesses++
				}
				if got := tableDigest(serialTable(t, results[i], width)); got != goldenSerial[spec.ID] {
					t.Errorf("%s at %d shards: table moved off its serial pin (%q, pinned %q)",
						spec.ID, shards, got, goldenSerial[spec.ID])
				}
				if row := m.Experiments[i]; max(row.Shards, 1) != width {
					t.Errorf("%s at %d shards: manifest row shows %d shards, want %d (MaxShards %d)",
						spec.ID, shards, row.Shards, width, spec.MaxShards)
				}
			}
			if declared == 0 || witnesses == 0 {
				t.Fatalf("%d experiments declare MaxShards, %d do not: the law holds vacuously", declared, witnesses)
			}
		})
	}
}

// serialTable returns r as a serial run prints it: a fat-tree table's
// `shards` row, which must read width, reset to 1.
func serialTable(t *testing.T, r *Result, width int) *Result {
	t.Helper()
	out := *r
	out.Rows = slices.Clone(r.Rows)
	for i, row := range out.Rows {
		if len(row) == 2 && row[0] == "shards" {
			if row[1] != fmt.Sprint(width) {
				t.Errorf("%s prints shards %s, ran on %d", r.ID, row[1], width)
			}
			out.Rows[i] = []string{"shards", "1"}
		}
	}
	return &out
}

// goldenRepeats2 pins every Randomized experiment pooled over 2 seeds.
var goldenRepeats2 = map[string]string{
	"fct-dwrr": "095b1dc60d6fe339a1f6dd90",
	"fct-wfq":  "b3fe60ef2cd04135ed6494b1",
	"fig16":    "5316334d1be79ca380328313",
	"fig17":    "84e3560497b0a6ce95b2a208",
	"fig18":    "30a2f5df9613073c8883f92a",
	"fig19":    "f1dd79395437a477a9ff7cbc",
	"fig20":    "7bce51cf1d04dc8389dab4d4",
	"fig21":    "c7b9f4076f31679649d318ee",
	"fig22":    "32c1f62b5b415b848a91131f",
	"fig23":    "7f74a00d5746f035eb82dc3c",
	"fig24":    "806effa672f41d019dccf95b",
	"fig25":    "8adbd0532a1795467be82e2d",
	"fig26":    "0f4003a027b76e12b9bc215d",
	"fig27":    "b32f62984c138fe8ee4905ca",
}

func TestGoldenTablesRepeats(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment at 2 repeats")
	}
	checkGolden(t, "goldenRepeats2", goldenRepeats2, Options{Quick: true, Seed: 1, Repeats: 2},
		func(s Spec) bool { return s.Randomized },
		func(row ExperimentReport) bool { return row.Repeats == 2 })
}
