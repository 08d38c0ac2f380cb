// Package framework is a self-contained, stdlib-only implementation of the
// golang.org/x/tools/go/analysis programming model, sized for this
// repository's needs. It exists because the build environment must work
// fully offline: the real x/tools module cannot be assumed present, so the
// depsenselint analyzers are written against this API-compatible core
// instead. The shapes (Analyzer, Pass, Diagnostic, Reportf) mirror
// go/analysis deliberately — if/when x/tools is vendored (see tools/tools.go
// for the version pin), the analyzers port by changing one import.
//
// On top of the go/analysis core it adds the two repo-specific conventions
// the lint suite is built around:
//
//   - Deterministic zones: packages (and functions carrying a
//     "//depsense:deterministic" doc-comment marker) whose outputs must be
//     bit-for-bit reproducible at any worker count. See DESIGN.md
//     ("Static analysis: determinism and numeric-safety contracts").
//   - Suppression: a finding may be silenced with a
//     "//lint:allow <analyzers> <reason>" comment on (or immediately above)
//     the offending line. The reason is mandatory; a reasonless allow is
//     itself a finding.
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer describes one static check. It mirrors
// golang.org/x/tools/go/analysis.Analyzer, including facts and analyzer
// dependencies.
type Analyzer struct {
	// Name identifies the analyzer in findings and in //lint:allow
	// directives. Lower-case, no spaces.
	Name string
	// Doc is the one-paragraph description shown by `depsenselint -help`.
	Doc string
	// Requires lists analyzers that must run (on every package) before
	// this one; their exported facts are visible to this analyzer's Run.
	// The driver runs the transitive closure in topological order.
	Requires []*Analyzer
	// Run applies the check to one package and reports findings through
	// pass.Reportf or pass.Report.
	Run func(pass *Pass) error
}

// A Pass provides one analyzer with one type-checked package and a sink for
// its findings.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Path is the package's import path. Kept separate from Pkg so that
	// fixture packages can impersonate real import paths in tests.
	Path string

	diags *[]Diagnostic
	facts *factStore
}

// A Diagnostic is one finding at a source position, optionally carrying
// mechanical fixes.
type Diagnostic struct {
	Pos     token.Pos
	Message string
	// SuggestedFixes are alternative mechanical resolutions; `depsenselint
	// -fix` applies the first one.
	SuggestedFixes []SuggestedFix
}

// A SuggestedFix is one self-contained mechanical resolution of a finding:
// a set of non-overlapping edits to the package's source files.
type SuggestedFix struct {
	Message   string
	TextEdits []TextEdit
}

// A TextEdit replaces the source in [Pos, End) with NewText. Pos == End
// inserts.
type TextEdit struct {
	Pos     token.Pos
	End     token.Pos
	NewText string
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Report records a fully-formed diagnostic (used by analyzers that attach
// suggested fixes).
func (p *Pass) Report(d Diagnostic) {
	*p.diags = append(*p.diags, d)
}

// DeterministicMarker is the doc-comment directive that marks a single
// function as a deterministic zone even when its package is not one, e.g.
// the reducers in internal/eval.
const DeterministicMarker = "//depsense:deterministic"

// FuncHasMarker reports whether the function declaration carries the given
// doc-comment directive (exact prefix match on one comment line).
func FuncHasMarker(fd *ast.FuncDecl, marker string) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if c.Text == marker || len(c.Text) > len(marker) && c.Text[:len(marker)] == marker {
			return true
		}
	}
	return false
}

// EnclosingFunc returns the innermost function declaration of file whose
// body contains pos, or nil.
func EnclosingFunc(file *ast.File, pos token.Pos) *ast.FuncDecl {
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Pos() <= pos && pos <= fd.End() {
			return fd
		}
	}
	return nil
}

// PkgNameOf resolves an identifier to the import path of the package it
// names, or "" when the identifier is not a package name. Analyzers use it
// to recognize selectors like rand.Seed or time.Now robustly under import
// renaming.
func PkgNameOf(info *types.Info, id *ast.Ident) string {
	if obj, ok := info.Uses[id].(*types.PkgName); ok {
		return obj.Imported().Path()
	}
	return ""
}

// SelectorPkgPath returns the imported package path and selected name when
// expr is a selector on a package name (e.g. "math/rand", "Seed" for
// rand.Seed), or "", "".
func SelectorPkgPath(info *types.Info, expr ast.Expr) (path, name string) {
	sel, ok := expr.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", ""
	}
	if p := PkgNameOf(info, id); p != "" {
		return p, sel.Sel.Name
	}
	return "", ""
}
