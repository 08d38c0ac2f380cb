// Package analysistest runs a depsenselint analyzer over fixture files and
// checks its findings against expectations written in the fixtures, in the
// style of golang.org/x/tools/go/analysis/analysistest:
//
//	for i := range m { // want `range over map`
//
// Each `// want "regexp"` (or backquoted) comment asserts that the
// analyzer, after //lint:allow suppression, reports a finding on that line
// matching the regexp. Findings without a want, and wants without a
// finding, fail the test. Suppression fixtures therefore carry a violation
// plus a //lint:allow directive and no want comment.
//
// Fixture directories hold one package of standalone Go files; they live
// under testdata/ so the surrounding module never compiles them. Because
// the zone-based analyzers key off import paths, RunPath lets a fixture
// impersonate a real package path (e.g. depsense/internal/core). Imports
// are resolved offline against export data from the local go toolchain,
// so fixtures may import both stdlib and depsense packages.
package analysistest

import (
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"depsense/internal/analysis/framework"
)

// RunPath analyzes the fixture package in dir as if its import path were
// importPath and checks its // want comments.
func RunPath(t *testing.T, a *framework.Analyzer, dir, importPath string) {
	t.Helper()
	pkg, findings := analyze(t, a, dir, importPath)
	checkWants(t, pkg, findings)
}

// Findings analyzes the fixture package in dir under importPath and returns
// the raw post-suppression findings without want-comment checking, for
// cases a trailing want comment cannot express (e.g. findings positioned on
// a directive comment itself).
func Findings(t *testing.T, a *framework.Analyzer, dir, importPath string) []framework.Finding {
	t.Helper()
	_, findings := analyze(t, a, dir, importPath)
	return findings
}

func analyze(t *testing.T, a *framework.Analyzer, dir, importPath string) (*framework.Package, []framework.Finding) {
	t.Helper()
	pkg, err := loadFixture(dir, importPath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	res, err := framework.Run([]*framework.Package{pkg}, []*framework.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, dir, err)
	}
	return pkg, res.Findings
}

type want struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

var wantRe = regexp.MustCompile("//\\s*want\\s+(?:\"((?:[^\"\\\\]|\\\\.)*)\"|`([^`]*)`)")

// checkWants cross-checks findings against the fixture's want comments.
func checkWants(t *testing.T, pkg *framework.Package, findings []framework.Finding) {
	t.Helper()
	var wants []*want
	for _, f := range pkg.Files {
		tf := pkg.Fset.File(f.Pos())
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pat := m[1]
				if pat == "" {
					pat = m[2]
				} else {
					pat = strings.ReplaceAll(pat, `\"`, `"`)
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s: bad want pattern %q: %v", pkg.Fset.Position(c.Pos()), pat, err)
				}
				wants = append(wants, &want{file: tf.Name(), line: tf.Line(c.Pos()), re: re})
			}
		}
	}
	for _, f := range findings {
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == f.Pos.Filename && w.line == f.Pos.Line && w.re.MatchString(f.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected finding matching %q, got none", w.file, w.line, w.re)
		}
	}
}

// loadFixture parses and type-checks one fixture directory as a package,
// resolving its imports offline from export data.
func loadFixture(dir, importPath string) (*framework.Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var paths []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			paths = append(paths, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(paths)

	fset := token.NewFileSet()
	pkg := &framework.Package{Fset: fset, Sources: map[string][]byte{}}
	importSet := map[string]bool{}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		pkg.Sources[p] = src
		f, err := parser.ParseFile(fset, p, src, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		pkg.Files = append(pkg.Files, f)
		for _, imp := range f.Imports {
			importSet[strings.Trim(imp.Path.Value, `"`)] = true
		}
	}
	if len(pkg.Files) == 0 {
		return nil, os.ErrNotExist
	}
	pkg.ImportPath = importPath

	imp, err := fixtureImporter(fset, importSet)
	if err != nil {
		return nil, err
	}
	info := framework.NewTypesInfo()
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	pkg.Types, _ = conf.Check(importPath, fset, pkg.Files, info)
	pkg.TypesInfo = info
	if len(pkg.TypeErrors) > 0 {
		return nil, pkg.TypeErrors[0]
	}
	return pkg, nil
}

// fixtureImporter builds an export-data importer for the fixture's imports
// (resolved from the test's working directory, which is inside the
// module).
func fixtureImporter(fset *token.FileSet, importSet map[string]bool) (types.Importer, error) {
	patterns := make([]string, 0, len(importSet))
	for p := range importSet {
		patterns = append(patterns, p)
	}
	sort.Strings(patterns)
	if len(patterns) == 0 {
		patterns = []string{"fmt"} // importer is still consulted for nothing; keep go list happy
	}
	return framework.ExportImporter(fset, ".", patterns...)
}
