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

// goldenShards2 pins every experiment that declares MaxShards at 2
// shards.
var goldenShards2 = map[string]string{
	"ablation-markpoint":   "5a011afa327774b426e79287",
	"calibrate":            "392081096fc2368c7fae68ef",
	"fattree":              "e8d104297341ca441420a1ca",
	"fattree-incast":       "3d6dd3667593564a9a9a7643",
	"fattree32":            "8c92527368f3a7075e89c24f",
	"fct-dwrr":             "c979ec6e4028bc26def2bdd0",
	"fct-weighted":         "6deddb403a9a7c14e6038b41",
	"fct-wfq":              "68ca8b4402e02f2e0e1815c9",
	"fig16":                "c30dd0e8375fd270fffdbc67",
	"fig17":                "5c2d0552c381099a6cd9af87",
	"fig18":                "96c092580621286fb8f714cc",
	"fig19":                "47efaca2607a28055074da5f",
	"fig20":                "4bcee537b6d8a6b768a54fe3",
	"fig21":                "66c83855a994c3bb0a0578f8",
	"fig22":                "001379bf250300c0f184a0bf",
	"fig23":                "c3e57a5abf220836ec6b665b",
	"fig24":                "eefa17bdb4efb970185fc82a",
	"fig25":                "4b8846da230ba0ed38724d45",
	"fig26":                "891a293614c4bb548e0ed251",
	"fig27":                "5811ad9495db9ecaf8dfa5b8",
	"scenario-fattree":     "e5f527ce3714dc5bf8d34b06",
	"scenario-permutation": "e4dbb54305894016c5aff708",
}

// goldenFlow pins every Fluid experiment on the flow engine, the only
// pinned runs of internal/flowsim's markings.
var goldenFlow = map[string]string{
	"fct-dwrr":             "8d86714e289b32bec0285478",
	"fct-wfq":              "ffa3fabb7d5ef26da4df7e82",
	"fig16":                "30506da05923e942ec963e2e",
	"fig17":                "01574261df451da9096f5227",
	"fig18":                "ccced4006397e64d7ba569e5",
	"fig19":                "dcc370f7ca7fe43f23fb6092",
	"fig20":                "753704815a8484180abdbda6",
	"fig21":                "68794d03d84a538a251a767f",
	"fig22":                "c2217da669902bb54c521f54",
	"fig23":                "ca695f4d5d6a8a45f0b9ea5d",
	"fig24":                "5917960eb966feeb83a944cb",
	"fig25":                "d7f3b3e353e3b672dda5da16",
	"fig26":                "1f9524f72b822283b04e13cc",
	"fig27":                "387b785833ca903809908dd7",
	"flow-scale":           "6e082f0e57bfab8e5002e5ad",
	"scenario-fattree":     "caa6ef84066849ea593636c7",
	"scenario-incast":      "1f931afd61868e9680e08643",
	"scenario-permutation": "279c9208f50834ffd4a54b83",
}

// checkGolden runs every registered experiment through RunMany at opt.
// An experiment that declares the option (declares(spec)) must match
// its pin in golden and its manifest row must show the option applied;
// any other must reproduce its serial table and its row must not show
// it — so each MaxShards/Fluid/Randomized declaration is held to what
// the run did.
// golden pins exactly the declaring experiments. Under -race only the
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
		if row := m.Experiments[i]; applied(row) != declares(spec) {
			t.Errorf("%s: manifest row engine %q shards %d contradicts its declaration (declared %v)",
				spec.ID, row.Engine, row.Shards, declares(spec))
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

func TestGoldenTablesSharded(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment at 2 shards")
	}
	checkGolden(t, "goldenShards2", goldenShards2, Options{Quick: true, Seed: 1, Shards: 2},
		func(s Spec) bool { return s.MaxShards > 0 },
		func(row ExperimentReport) bool { return row.Shards == 2 })
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

func TestGoldenTablesFlow(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment on the flow engine")
	}
	checkGolden(t, "goldenFlow", goldenFlow, Options{Quick: true, Seed: 1, Engine: "flow"},
		func(s Spec) bool { return s.Fluid },
		func(row ExperimentReport) bool { return row.Engine == "flow" })
}
