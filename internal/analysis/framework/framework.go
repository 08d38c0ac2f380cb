// Package framework is a self-contained, stdlib-only implementation of the
// golang.org/x/tools/go/analysis programming model, sized for this
// repository's needs. It exists because the build environment must work
// fully offline: the real x/tools module cannot be assumed present, so the
// depsenselint analyzers are written against this API-compatible core
// instead. The shapes (Analyzer, Pass, Diagnostic, Reportf) mirror
// go/analysis deliberately, so the analyzers port by changing one import.
//
// On top of the go/analysis core it adds the repo-specific suppression
// convention: a finding may be silenced with a
// "//lint:allow <analyzers> <reason>" comment on (or immediately above)
// the offending line. The reason is mandatory; a reasonless allow is
// itself a finding. Which packages each analyzer patrols is declared in
// internal/analysis/zones.
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer describes one static check. It mirrors
// golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in findings and in //lint:allow
	// directives. Lower-case, no spaces.
	Name string
	// Doc is the one-paragraph description shown by `depsenselint -list`.
	Doc string
	// Run applies the check to one package and reports findings through
	// pass.Reportf.
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
}

// A Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
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

// SelectorPkgPath returns the imported package path and selected name when
// expr is a selector on a package name (e.g. "math/rand", "Seed" for
// rand.Seed), or "", "". Resolving the name through the type checker keeps
// analyzers robust under import renaming.
func SelectorPkgPath(info *types.Info, expr ast.Expr) (path, name string) {
	sel, ok := expr.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", ""
	}
	if pkg, ok := info.Uses[id].(*types.PkgName); ok {
		return pkg.Imported().Path(), sel.Sel.Name
	}
	return "", ""
}
