package framework

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// parse builds a minimal Package (no types) for directive-parsing tests.
func parse(t *testing.T, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fix.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return &Package{
		ImportPath: "fixture",
		Fset:       fset,
		Files:      []*ast.File{f},
		Sources:    map[string][]byte{"fix.go": []byte(src)},
	}
}

func TestParseAllows(t *testing.T) {
	src := `package fixture

func f() {
	x := 1 //lint:allow alpha trailing directive covers its own line
	//lint:allow beta standalone directive covers the next line
	x++
	//lint:allow gamma stacked standalone directives
	//lint:allow delta chain to the first code line below
	x--
	//lint:allow epsilon,zeta comma lists name several analyzers
	_ = x
	//lint:allow
	_ = x
	// a doc sentence may mention lint:allow mid-text without being a directive
}
`
	pkg := parse(t, src)
	allows := parseAllows(pkg)

	byAnalyzer := map[string]allowDirective{}
	malformed := 0
	for _, d := range allows {
		if d.malformed != "" {
			malformed++
			continue
		}
		for _, a := range d.analyzers {
			byAnalyzer[a] = d
		}
	}
	if malformed != 1 {
		t.Errorf("malformed directives = %d, want 1 (the reasonless one)", malformed)
	}
	cases := map[string]int{
		"alpha":   4, // its own line
		"beta":    6, // next line
		"gamma":   9, // chained through delta's line to the code line
		"delta":   9,
		"epsilon": 11,
		"zeta":    11,
	}
	for name, wantLine := range cases {
		d, ok := byAnalyzer[name]
		if !ok {
			t.Errorf("directive %q not parsed", name)
			continue
		}
		if d.line != wantLine {
			t.Errorf("directive %q covers line %d, want %d", name, d.line, wantLine)
		}
		if d.reason == "" {
			t.Errorf("directive %q lost its reason", name)
		}
	}
}

// dummy reports on every integer literal.
var dummy = &Analyzer{
	Name: "dummy",
	Doc:  "report every int literal",
	Run: func(pass *Pass) error {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if lit, ok := n.(*ast.BasicLit); ok {
					pass.Reportf(lit.Pos(), "literal %s", lit.Value)
				}
				return true
			})
		}
		return nil
	},
}

// messages renders findings as "analyzer:message" for comparison.
func messages(findings []Finding) []string {
	var out []string
	for _, f := range findings {
		out = append(out, f.Analyzer+":"+f.Message)
	}
	return out
}

// TestRunAnalyzersSuppression drives the full driver with a dummy analyzer
// that reports on every integer literal, checking line-targeted
// suppression and the lintallow hygiene finding.
func TestRunAnalyzersSuppression(t *testing.T) {
	src := `package fixture

func f() int {
	a := 1
	b := 2 //lint:allow dummy justified
	//lint:allow dummy also justified
	c := 3
	//lint:allow dummy
	d := 4
	return a + b + c + d
}
`
	res, err := Run([]*Package{parse(t, src)}, []*Analyzer{dummy})
	if err != nil {
		t.Fatal(err)
	}
	got := messages(res.Findings)
	want := []string{
		"dummy:literal 1", // unsuppressed
		AllowName + ":" + "//lint:allow must carry a reason: //lint:allow dummy <why this is safe>",
		"dummy:literal 4", // reasonless directive is void
	}
	if len(got) != len(want) {
		t.Fatalf("findings = %v, want %d entries %v", got, len(want), want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("finding[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestStaleAllows is the audit behind -staleallow: an allow that suppresses
// nothing and an allow naming an analyzer outside the roster are both
// reported; an allow that earns its keep, and a reasonless one (already a
// lintallow finding), are not.
func TestStaleAllows(t *testing.T) {
	src := `package fixture

func f() int {
	a := 1 //lint:allow dummy justified, and a literal sits here
	//lint:allow dummy nothing on the next line fires
	_ = a
	//lint:allow ctxloop not in the roster
	b := 2 //lint:allow dummy justified
	//lint:allow dummy
	return a + b
}
`
	res, err := Run([]*Package{parse(t, src)}, []*Analyzer{dummy})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := messages(res.Findings), []string{
		AllowName + ":" + "//lint:allow must carry a reason: //lint:allow dummy <why this is safe>",
	}; strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("findings = %q, want %q", got, want)
	}
	got := messages(res.StaleAllows)
	want := []string{
		StaleAllowName + ":" + "stale //lint:allow dummy: no dummy finding fires on line 6; delete the directive",
		StaleAllowName + ":" + `//lint:allow names unknown analyzer "ctxloop"`,
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("stale allows = %q, want %q", got, want)
	}
	if l0, l1 := res.StaleAllows[0].Pos.Line, res.StaleAllows[1].Pos.Line; l0 != 5 || l1 != 7 {
		t.Errorf("stale allows reported on lines %d and %d, want the directives' own lines 5 and 7", l0, l1)
	}
}
