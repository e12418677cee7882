package experiment

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"
)

// The golden gate: every registered experiment's quick table at seed 1
// is pinned by digest, so a refactor of how experiments build and drive
// their fabrics cannot move a number unnoticed. A digest covers the
// result's ID, headers and rows; notes are left out because several
// carry wall-clock times. When a change is meant to move a table, rerun
// the test and paste the digests its failure messages print.

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
	"ablation-average":     "243cb8110ab0d56977bbc0c8",
	"ablation-filter":      "a8d52555e0dba5510d927ada",
	"ablation-markpoint":   "e2363c8b76b61ee0abdacb3e",
	"ablation-portk":       "5eeff6e5cbf9fac31d481ee8",
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

// goldenShards2 pins the experiments that honor -shards at 2 shards.
var goldenShards2 = map[string]string{
	"fattree":        "e8d104297341ca441420a1ca",
	"fattree-incast": "3d6dd3667593564a9a9a7643",
	"fct-dwrr":       "c979ec6e4028bc26def2bdd0",
}

// goldenFlow pins the experiments with a fluid formulation on the
// flow engine, the only pinned runs of internal/flowsim's markings.
var goldenFlow = map[string]string{
	"fct-dwrr":             "8d86714e289b32bec0285478",
	"fct-wfq":              "ffa3fabb7d5ef26da4df7e82",
	"scenario-fattree":     "caa6ef84066849ea593636c7",
	"scenario-incast":      "1f931afd61868e9680e08643",
	"scenario-permutation": "279c9208f50834ffd4a54b83",
}

func checkGolden(t *testing.T, name string, golden map[string]string, specs []Spec, opt Options) {
	t.Helper()
	if len(specs) != len(golden) {
		t.Errorf("%s pins %d experiments, registry has %d", name, len(golden), len(specs))
	}
	for _, spec := range specs {
		res, err := spec.Run(opt)
		if err != nil {
			t.Errorf("%s: %v", spec.ID, err)
			continue
		}
		if got := tableDigest(res); got != golden[spec.ID] {
			t.Errorf("%s table moved: %s[%q] = %q, pinned %q", spec.ID, name, spec.ID, got, golden[spec.ID])
		}
	}
}

func TestGoldenTables(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	checkGolden(t, "goldenSerial", goldenSerial, List(), Options{Quick: true, Seed: 1})
}

func TestGoldenTablesSharded(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the fct-dwrr sweep sharded")
	}
	checkGolden(t, "goldenShards2", goldenShards2, lookupAll(t, "fct-dwrr", "fattree", "fattree-incast"),
		Options{Quick: true, Seed: 1, Shards: 2})
}

func TestGoldenTablesFlow(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the fluid sweeps")
	}
	checkGolden(t, "goldenFlow", goldenFlow,
		lookupAll(t, "fct-dwrr", "fct-wfq", "scenario-fattree", "scenario-incast", "scenario-permutation"),
		Options{Quick: true, Seed: 1, Engine: "flow"})
}

func lookupAll(t *testing.T, ids ...string) []Spec {
	t.Helper()
	specs := make([]Spec, len(ids))
	for i, id := range ids {
		spec, err := Lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		specs[i] = spec
	}
	return specs
}
