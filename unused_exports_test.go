package bcnphase_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// exportedFunc names a top-level function by import path and name.
type exportedFunc struct{ pkg, name string }

// keptWithoutCaller lists the exported top-level functions under
// internal/ that no program calls but that stay, each with its reason.
// "Deferred" entries are dead code whose deletion takes the named tests
// with it; ROADMAP item 3 tracks them.
var keptWithoutCaller = map[exportedFunc]string{
	{"bcnphase/internal/invariant/xcheck", "StitchRK45"}: "independent raw-ODE oracle the kernel conformance tests compare against",
	{"bcnphase/internal/core", "Proposition2Satisfied"}:  "paper predicate the criteria conformance test checks the kernel against",
	{"bcnphase/internal/core", "AnalyticRho"}:            "closed-form rho; the provenance recorder (ROADMAP item 6) is to call it",
	{"bcnphase/internal/core", "RoundDurations"}:         "closed-form round durations; the provenance recorder (ROADMAP item 6) is to call it",
	{"bcnphase/internal/ode", "AdaptiveIntegrate"}:       "drives the second embedded pair TestQuickPairsAgree checks DormandPrince against",
	{"bcnphase/internal/ode", "BogackiShampineTableau"}:  "the second embedded pair TestQuickPairsAgree checks DormandPrince against",
	{"bcnphase/internal/phaseplane", "Companion"}:        "builds the linear fields the package's examples and closed-form tests use",
	{"bcnphase/internal/core", "Analyze"}:                "deferred: takes TestAnalyze and TestAnalyzeThreadsChecker",
	{"bcnphase/internal/ode", "NewMetrics"}:              "deferred: takes TestDormandPrinceMetrics, TestDormandPrinceRejectedCounted, TestNilMetricsSafe",
	{"bcnphase/internal/phaseplane", "NewMetrics"}:       "deferred: takes TestNewMetricsNil and TestReturnMapMetrics",
	{"bcnphase/internal/phaseplane", "ClassifyAt"}:       "deferred: takes ExampleClassifyAt and TestClassifyAtNonlinear",
	{"bcnphase/internal/phaseplane", "FindEquilibrium"}:  "deferred: takes TestFindEquilibrium and TestFindEquilibriumSingular",
	{"bcnphase/internal/phaseplane", "Switched"}:         "deferred: takes TestSwitchedFieldSelection",
	{"bcnphase/internal/phaseplane", "Trace"}:            "deferred: takes the four TestTrace* tests",
	{"bcnphase/internal/sweep", "Linspace"}:              "deferred: takes TestLinspace, TestLinspaceDegenerateCounts, TestLinspaceDescending",
}

// TestNoUnusedExportedFuncs fails when a top-level exported function
// under internal/ has no caller outside _test.go files. Calls from
// cmd/, examples/, verdictbench/ and other internal packages count, and
// so do uses inside the defining package. A function only tests call
// either goes, moves into the tests, or joins keptWithoutCaller with
// the reason it stays.
func TestNoUnusedExportedFuncs(t *testing.T) {
	declared := map[exportedFunc]token.Position{}
	used := map[exportedFunc]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := "bcnphase"
		if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." {
			pkg += "/" + dir
		}
		// Declared names and selector fields are not uses.
		skip := map[*ast.Ident]bool{}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			skip[fd.Name] = true
			if fd.Recv == nil && fd.Name.IsExported() && strings.HasPrefix(pkg, "bcnphase/internal/") {
				declared[exportedFunc{pkg, fd.Name.Name}] = fset.Position(fd.Pos())
			}
		}
		imports := map[string]string{} // local name → import path
		for _, im := range f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			name := p[strings.LastIndex(p, "/")+1:]
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = p
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				skip[n.Sel] = true
				if x, ok := n.X.(*ast.Ident); ok {
					if p, ok := imports[x.Name]; ok {
						used[exportedFunc{p, n.Sel.Name}] = true
					}
				}
			case *ast.Ident:
				if !skip[n] {
					used[exportedFunc{pkg, n.Name}] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var unused []string
	for f, pos := range declared {
		id := f.pkg + "." + f.name
		_, kept := keptWithoutCaller[f]
		switch {
		case used[f] && kept:
			t.Errorf("%s has a caller now; drop it from keptWithoutCaller", id)
		case !used[f] && !kept:
			unused = append(unused, pos.String()+": "+id)
		}
	}
	for f := range keptWithoutCaller {
		if _, ok := declared[f]; !ok {
			t.Errorf("keptWithoutCaller names %s.%s, which is not declared", f.pkg, f.name)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("exported function without a caller outside tests: %s", u)
	}
}
