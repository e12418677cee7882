package experiment

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"pmsb/internal/ecn"
	"pmsb/internal/flowsim"
	"pmsb/internal/sched"
	"pmsb/internal/transport"
)

// The reach gate: a mechanism that no golden-pinned run executes can
// rot unseen, so every one must be reached by an experiment or be
// deleted. A mechanism is an exported New* constructor, or an exported
// type implementing one of the model's plug-in interfaces, in one of
// reachPackages. The gate runs the golden tests under -coverpkg and
// fails on any mechanism with zero covered statements. No mechanism is
// exempt; only a test seam or a name benchmark/ compiles against could
// be, with its reason beside it.

// reachPackages are the model packages the gate covers.
var reachPackages = []string{"sched", "ecn", "core", "transport", "netsim", "flowsim", "workload"}

// reachInterfaces are the plug-in seams: an exported type whose method
// set names every method of one of them is a mechanism.
var reachInterfaces = []reflect.Type{
	reflect.TypeOf((*sched.Scheduler)(nil)).Elem(),
	reflect.TypeOf((*ecn.Marker)(nil)).Elem(),
	reflect.TypeOf((*transport.Filter)(nil)).Elem(),
	reflect.TypeOf((*flowsim.Marking)(nil)).Elem(),
}

// mechanismReach names, for every mechanism, a registered experiment
// whose pinned run reaches it. The gate checks that every mechanism has
// a row naming a registered experiment and that the golden set as a
// whole reaches it; the flowsim.PerPort and flowsim.MQECN rows mean the
// goldenFlow run.
var mechanismReach = map[string]string{
	"core.PMSB":                  "fig8",
	"core.PMSBe":                 "fig9",
	"ecn.Averaged":               "ablation-average",
	"ecn.NewAveraged":            "ablation-average",
	"ecn.MQECN":                  "fig9",
	"ecn.None":                   "fig1", // every host NIC
	"ecn.PerPool":                "pool",
	"ecn.PerPort":                "fig3",
	"ecn.PerQueueFractional":     "fig2",
	"ecn.PerQueueStandard":       "fig1",
	"ecn.TCN":                    "fig5",
	"flowsim.New":                "flow-scale",
	"flowsim.PMSB":               "flow-scale",
	"flowsim.PerPort":            "fct-dwrr",
	"flowsim.MQECN":              "fct-dwrr",
	"netsim.NewArena":            "fattree",
	"netsim.NewHost":             "fig1",
	"netsim.NewLink":             "pfc",
	"netsim.NewPort":             "fig1",
	"netsim.NewSwitch":           "fig1",
	"netsim.NewPFC":              "pfc",
	"sched.DWRR":                 "fig9",
	"sched.NewDWRR":              "fig9",
	"sched.NewDWRRBlock":         "fattree",
	"sched.FIFO":                 "fig1", // every host NIC
	"sched.NewFIFO":              "fig1",
	"sched.NewFIFOBlock":         "fattree",
	"sched.SP":                   "fig14",
	"sched.NewSP":                "fig14",
	"sched.SPWFQ":                "fig13",
	"sched.NewSPWFQ":             "fig13",
	"sched.WFQ":                  "fig8",
	"sched.NewWFQ":               "fig8",
	"sched.WRR":                  "fig8-wrr",
	"sched.NewWRR":               "fig8-wrr",
	"transport.NewDCQCNSender":   "pfc",
	"transport.NewDCQCNReceiver": "pfc",
	"transport.NewFlow":          "fig1",
	"transport.NewSender":        "fig1",
	"transport.NewReceiver":      "fig1",
}

func TestEveryMechanismReached(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the golden set under coverage")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Fatalf("the gate runs the golden tests through the go tool: %v", err)
	}
	profile := filepath.Join(t.TempDir(), "reach.cover")
	pkgs := make([]string, len(reachPackages))
	for i, p := range reachPackages {
		pkgs[i] = "pmsb/internal/" + p
	}
	cmd := exec.Command(goBin, "test", "-count=1", "-run", "^TestGoldenTables",
		"-coverpkg="+strings.Join(pkgs, ","), "-coverprofile="+profile, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		// A golden failure is reported by the golden tests themselves;
		// the profile still says what ran.
		t.Errorf("golden run under coverage: %v\n%s", err, out)
	}
	covered, err := readCoverage(profile)
	if err != nil {
		t.Fatal(err)
	}

	mechs := map[string]int{}
	for _, p := range reachPackages {
		found, err := packageMechanisms(filepath.Join("..", p), "pmsb/internal/"+p, covered)
		if err != nil {
			t.Fatal(err)
		}
		for name, n := range found {
			mechs[p+"."+name] = n
		}
	}
	names := make([]string, 0, len(mechs))
	for name := range mechs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if id, listed := mechanismReach[name]; !listed {
			t.Errorf("%s: no row in mechanismReach (pin it with an experiment, or delete it)", name)
		} else if _, err := Lookup(id); err != nil {
			t.Errorf("%s: mechanismReach names %q, which is not a registered experiment", name, id)
		}
		if mechs[name] == 0 {
			t.Errorf("%s: no golden-pinned run executes it", name)
		}
	}
	for name := range mechanismReach {
		if _, ok := mechs[name]; !ok {
			t.Errorf("mechanismReach row %s names no mechanism", name)
		}
	}
}

// coverBlock is one profile block: its source span and whether it ran.
type coverBlock struct {
	startLine, startCol, endLine, endCol int
	stmts                                int
	hit                                  bool
}

// readCoverage parses a coverage profile into blocks per source file
// (keyed by import path + "/" + file name).
func readCoverage(path string) (map[string][]coverBlock, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]coverBlock{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "mode:") {
			continue
		}
		// file:l0.c0,l1.c1 stmts count
		colon := strings.LastIndexByte(line, ':')
		if colon < 0 {
			return nil, fmt.Errorf("%s: bad profile line %q", path, line)
		}
		fields := strings.Fields(line[colon+1:])
		if len(fields) != 3 {
			return nil, fmt.Errorf("%s: bad profile line %q", path, line)
		}
		var b coverBlock
		if _, err := fmt.Sscanf(fields[0], "%d.%d,%d.%d", &b.startLine, &b.startCol, &b.endLine, &b.endCol); err != nil {
			return nil, fmt.Errorf("%s: bad span in %q: %v", path, line, err)
		}
		stmts, err1 := strconv.Atoi(fields[1])
		count, err2 := strconv.Atoi(fields[2])
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("%s: bad counts in %q", path, line)
		}
		b.stmts, b.hit = stmts, count > 0
		file := line[:colon]
		out[file] = append(out[file], b)
	}
	return out, sc.Err()
}

// packageMechanisms parses the package in dir and returns its
// mechanisms, each with the number of its statements the profile
// covered: a constructor's own, or the sum over a type's methods.
func packageMechanisms(dir, importPath string, covered map[string][]coverBlock) (map[string]int, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		return nil, err
	}
	ctors := map[string]int{}
	methods := map[string]map[string]int{} // type -> method -> covered stmts
	embeds := map[string][]string{}        // type -> embedded same-package types
	types := map[string]bool{}
	for _, pkg := range pkgs {
		for path, file := range pkg.Files {
			blocks := covered[importPath+"/"+filepath.Base(path)]
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					n := coveredIn(fset, d, blocks)
					if d.Recv == nil {
						if d.Name.IsExported() && strings.HasPrefix(d.Name.Name, "New") {
							ctors[d.Name.Name] = n
						}
						continue
					}
					recv := receiverType(d.Recv.List[0].Type)
					if methods[recv] == nil {
						methods[recv] = map[string]int{}
					}
					methods[recv][d.Name.Name] = n
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						ts, ok := spec.(*ast.TypeSpec)
						if !ok {
							continue
						}
						types[ts.Name.Name] = true
						if st, ok := ts.Type.(*ast.StructType); ok {
							for _, f := range st.Fields.List {
								if len(f.Names) == 0 {
									embeds[ts.Name.Name] = append(embeds[ts.Name.Name], receiverType(f.Type))
								}
							}
						}
					}
				}
			}
		}
	}
	out := ctors
	for typ := range types {
		if !ast.IsExported(typ) {
			continue
		}
		set := methodSet(typ, methods, embeds, map[string]bool{})
		for _, iface := range reachInterfaces {
			if implementsByName(set, iface) {
				// Only the type's own methods count: promoted ones
				// are reached through whichever type declares them.
				own := methods[typ]
				if len(own) == 0 {
					own = set
				}
				n := 0
				for _, c := range own {
					n += c
				}
				out[typ] = n
				break
			}
		}
	}
	return out, nil
}

// methodSet collects typ's methods, promoted ones from embedded
// same-package types included.
func methodSet(typ string, methods map[string]map[string]int, embeds map[string][]string, seen map[string]bool) map[string]int {
	set := map[string]int{}
	if seen[typ] {
		return set
	}
	seen[typ] = true
	for _, e := range embeds[typ] {
		for m, n := range methodSet(e, methods, embeds, seen) {
			set[m] = n
		}
	}
	for m, n := range methods[typ] {
		set[m] = n
	}
	return set
}

// implementsByName reports whether set names every method of iface.
func implementsByName(set map[string]int, iface reflect.Type) bool {
	for i := 0; i < iface.NumMethod(); i++ {
		if _, ok := set[iface.Method(i).Name]; !ok {
			return false
		}
	}
	return true
}

// receiverType names the type of a receiver or embedded field,
// pointer stripped.
func receiverType(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.StarExpr:
		return receiverType(t.X)
	case *ast.Ident:
		return t.Name
	}
	return ""
}

// coveredIn counts the covered statements of the profile blocks that
// lie inside fn.
func coveredIn(fset *token.FileSet, fn *ast.FuncDecl, blocks []coverBlock) int {
	start, end := fset.Position(fn.Pos()), fset.Position(fn.End())
	n := 0
	for _, b := range blocks {
		if !b.hit || b.startLine < start.Line || b.endLine > end.Line {
			continue
		}
		if (b.startLine == start.Line && b.startCol < start.Column) || (b.endLine == end.Line && b.endCol > end.Column) {
			continue
		}
		n += b.stmts
	}
	return n
}
