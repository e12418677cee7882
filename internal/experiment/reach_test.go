package experiment

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"pmsb/internal/ecn"
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
}

// mechanismReach names, for every mechanism, a registered experiment
// whose pinned run reaches it. The gate checks that every mechanism has
// a row naming a registered experiment and that the golden set as a
// whole reaches it.
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

// The surface gate: an exported name with no caller outside the tests
// is code kept for a caller that never came, and a *Config field that no
// other package sets is an option stuck at its default. The gate
// type-checks the module and benchmark/ from source, test files left
// out, and fails on
//   - an exported package-level func, type, var or const of internal/,
//     or an exported method declared there, that no non-test file
//     refers to (a method that satisfies an interface declared in the
//     module, or one of surfaceStdInterfaces, counts as referred to);
//   - an exported field of an internal/ *Config struct that no non-test
//     file outside its own package refers to.
// The only escape is a row in exportedForTests.

// testSeam names the test file that needs an exported name, and why.
type testSeam struct{ file, why string }

// exportedForTests are the exported names kept for tests alone, keyed
// "pkg.Name", "pkg.Type.Method" or "pkg.Config.Field". The file is
// relative to the module root and must refer to the name; a row whose
// name is gone, or has since gained a non-test referrer, fails the gate.
var exportedForTests = map[string]testSeam{
	// §IV-D's equations and Algorithm 2 as written: tested against the
	// paper, to be reached by the analysis-validation check (ROADMAP
	// item 14).
	"core.Analysis.MinPortThreshold":   {"internal/core/core_test.go", "Theorem IV.1 summed per port; ROADMAP item 14"},
	"core.Analysis.QueueLength":        {"internal/core/core_test.go", "Eq. 7; ROADMAP item 14"},
	"core.Analysis.QueueMin":           {"internal/core/core_test.go", "Q_i^min of §IV-D; ROADMAP item 14"},
	"core.Analysis.QueueMinLowerBound": {"internal/core/core_test.go", "Eq. 10; ROADMAP item 14"},
	"core.PMSBe.IgnoreMark":            {"internal/core/core_test.go", "Algorithm 2 as one literal predicate; ROADMAP item 14"},

	// Knobs that isolate behaviour a test needs.
	"flowsim.Config.NoSlowStart": {"internal/flowsim/flowsim_test.go", "closed-form max-min solver tests"},
	"netsim.PortConfig.DropFn":   {"internal/transport/loss_test.go", "loss injection for the recovery tests"},

	// Read-outs and drivers other test packages use.
	"flowsim.Sim.Completed":    {"internal/flowsim/flowsim_test.go", "solver state read-out"},
	"flowsim.Sim.FlowRate":     {"internal/flowsim/flowsim_test.go", "solver state read-out"},
	"flowsim.Sim.PortDepth":    {"internal/flowsim/flowsim_test.go", "solver state read-out"},
	"flowsim.Sim.Quantum":      {"internal/flowsim/flowsim_test.go", "solver state read-out"},
	"flowsim.Sim.ServiceDepth": {"internal/flowsim/flowsim_test.go", "solver state read-out"},
	"netsim.Host.RxPackets":    {"internal/topo/topo_test.go", "delivery counts across a fabric"},
	"obs.ReadBinary":           {"differential_test.go", "decodes a trace to compare it event by event"},
	"obs.Ring.WriteBinary":     {"cmd/pmsbstat/main_test.go", "writes a recorded ring as a trace file"},
	"pkt.SetPoolDebug":         {"pooldebug_test.go", "packet-pool poisoning end to end"},
	"sim.Engine.Schedule":      {"internal/experiment/runner_test.go", "closure events in engine-driving tests"},
	"topo.FIFOBlocks":          {"bench_test.go", "slab-carved FIFO fabric benchmark"},
}

// surfaceStdInterfaces are the standard interfaces, besides error, a
// method may satisfy to count as referred to: the standard library
// calls them.
var surfaceStdInterfaces = [][2]string{
	{"fmt", "Stringer"},
	{"io", "WriterTo"},
	{"flag", "Value"},
	{"encoding/json", "Marshaler"},
}

func TestEveryExportReferenced(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	s, err := loadSurface(root)
	if err != nil {
		t.Fatal(err)
	}
	gaps, err := s.gaps()
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(gaps))
	for name := range gaps {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, ok := exportedForTests[name]; !ok && gaps[name] != "" {
			t.Errorf("%s: %s (delete it, or give it an exportedForTests row)", name, gaps[name])
		}
	}
	for name, seam := range exportedForTests {
		switch gap, ok := gaps[name]; {
		case !ok:
			t.Errorf("exportedForTests row %s names nothing declared", name)
		case gap == "":
			t.Errorf("exportedForTests row %s is stale: the name has a non-test referrer", name)
		}
		if !strings.HasSuffix(seam.file, "_test.go") {
			t.Errorf("exportedForTests row %s: %s is not a test file", name, seam.file)
			continue
		}
		src, err := os.ReadFile(filepath.Join(root, seam.file))
		if err != nil {
			t.Errorf("exportedForTests row %s: %v", name, err)
			continue
		}
		last := name[strings.LastIndexByte(name, '.')+1:]
		if !regexp.MustCompile(`\b` + last + `\b`).Match(src) {
			t.Errorf("exportedForTests row %s: %s does not refer to %s", name, seam.file, last)
		}
	}
}

// surface is the module and benchmark/, type-checked without tests.
type surface struct {
	fset  *token.FileSet
	dirs  map[string]string // import path -> directory
	pkgs  map[string]*types.Package
	infos map[string]*types.Info
	std   types.Importer
}

func loadSurface(root string) (*surface, error) {
	s := &surface{
		fset:  token.NewFileSet(),
		dirs:  map[string]string{},
		pkgs:  map[string]*types.Package{},
		infos: map[string]*types.Info{},
	}
	s.std = importer.ForCompiler(s.fset, "source", nil)
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		if srcs, _ := filepath.Glob(filepath.Join(path, "*.go")); len(srcs) > 0 {
			s.dirs[filepath.ToSlash(filepath.Join("pmsb", rel))] = path
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for path := range s.dirs {
		if _, err := s.Import(path); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Import type-checks a module package from source, once; anything else
// goes to the standard library's source importer.
func (s *surface) Import(path string) (*types.Package, error) {
	if p, ok := s.pkgs[path]; ok {
		return p, nil
	}
	dir, ok := s.dirs[path]
	if !ok {
		return s.std.Import(path)
	}
	parsed, err := parser.ParseDir(s.fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, p := range parsed {
		for _, f := range p.Files {
			files = append(files, f)
		}
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: s}
	p, err := conf.Check(path, s.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %v", path, err)
	}
	s.pkgs[path], s.infos[path] = p, info
	return p, nil
}

// gaps maps every name the gate checks to why it breaks a gate rule,
// or to "" when it has the referrer it needs.
func (s *surface) gaps() (map[string]string, error) {
	// Who refers to what: the packages of every non-test use.
	users := map[types.Object]map[string]bool{}
	for path, info := range s.infos {
		for _, obj := range info.Uses {
			obj = origin(obj)
			if users[obj] == nil {
				users[obj] = map[string]bool{}
			}
			users[obj][path] = true
		}
	}
	// A method that a module type needs to satisfy an interface is
	// referred to through that interface.
	var ifaces []*types.Interface
	var named []*types.Named
	for _, p := range s.pkgs {
		for _, n := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(n).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				ifaces = append(ifaces, it)
			} else if nt, ok := tn.Type().(*types.Named); ok {
				named = append(named, nt)
			}
		}
	}
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	for _, si := range surfaceStdInterfaces {
		p, err := s.std.Import(si[0])
		if err != nil {
			return nil, err
		}
		ifaces = append(ifaces, p.Scope().Lookup(si[1]).Type().Underlying().(*types.Interface))
	}
	viaInterface := map[types.Object]bool{}
	for _, nt := range named {
		ptr := types.NewPointer(nt)
		for _, it := range ifaces {
			if !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				if obj, _, _ := types.LookupFieldOrMethod(ptr, true, m.Pkg(), m.Name()); obj != nil {
					viaInterface[obj] = true
				}
			}
		}
	}

	gaps := map[string]string{}
	for path, p := range s.pkgs {
		if !strings.HasPrefix(path, "pmsb/internal/") {
			continue
		}
		// check records name's gap: no referrer at all, or (outside) none
		// beyond its own package.
		check := func(name string, obj types.Object, outside bool) {
			gaps[name] = ""
			for user := range users[obj] {
				if !outside || user != path {
					return
				}
			}
			if outside {
				gaps[name] = "no non-test file outside its package sets or reads it"
			} else {
				gaps[name] = "no non-test file refers to it"
			}
		}
		for _, n := range p.Scope().Names() {
			obj := p.Scope().Lookup(n)
			if obj.Exported() {
				check(p.Name()+"."+n, obj, false)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if nt, ok := tn.Type().(*types.Named); ok {
				if _, isIface := nt.Underlying().(*types.Interface); !isIface {
					for i := 0; i < nt.NumMethods(); i++ {
						m := nt.Method(i)
						if m.Exported() && !viaInterface[m] {
							check(p.Name()+"."+n+"."+m.Name(), m, false)
						}
					}
				}
			}
			if st, ok := tn.Type().Underlying().(*types.Struct); ok && strings.HasSuffix(n, "Config") {
				for i := 0; i < st.NumFields(); i++ {
					if f := st.Field(i); f.Exported() {
						check(p.Name()+"."+n+"."+f.Name(), f, true)
					}
				}
			}
		}
	}
	return gaps, nil
}

// origin maps an instantiated generic member back to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}
