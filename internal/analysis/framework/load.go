package framework

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	// ImportPath is the package's import path as reported by go list.
	ImportPath string
	// Fset positions all files of all packages of one Load call.
	Fset *token.FileSet
	// Files are the parsed non-test Go files, in go list order.
	Files []*ast.File
	// Types and TypesInfo hold the type-checker output. Types is non-nil
	// even when TypeErrors is not empty (partial information).
	Types     *types.Package
	TypesInfo *types.Info
	// Sources maps each file's absolute path to its raw bytes, used by the
	// suppression scanner to classify directive comments.
	Sources map[string][]byte
	// TypeErrors collects soft type-check errors; analysis proceeds on
	// whatever information was recovered.
	TypeErrors []error
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	DepOnly    bool
	Match      []string
	Error      *struct{ Err string }
}

// goList runs `go list -e -export -deps -json patterns...` in dir and
// decodes the package stream. -export makes the go tool compile every
// listed package (and its dependencies) and report the build-cache path of
// its export data, which is what lets the loader type-check offline without
// golang.org/x/tools: dependency types are imported from export data
// instead of being re-checked from source.
func goList(dir string, patterns ...string) ([]listPkg, error) {
	args := append([]string{"list", "-e", "-export", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("framework: go list %v: %v\n%s", patterns, err, stderr.String())
	}
	var pkgs []listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("framework: decoding go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// ExportImporter returns a types.Importer that resolves imports from the
// export data of the packages matched (with dependencies) by patterns,
// as built by the local go toolchain. dir anchors pattern resolution.
func ExportImporter(fset *token.FileSet, dir string, patterns ...string) (types.Importer, error) {
	pkgs, err := goList(dir, patterns...)
	if err != nil {
		return nil, err
	}
	return exportImporterFor(fset, pkgs), nil
}

func exportImporterFor(fset *token.FileSet, pkgs []listPkg) types.Importer {
	exports := make(map[string]string, len(pkgs))
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("framework: no export data for %q", path)
		}
		return os.Open(f)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}

// NewTypesInfo allocates a types.Info with every map analyzers consume.
func NewTypesInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}

// Load parses and type-checks the non-test Go files of every package
// matched by patterns (relative to dir, typically the module root).
// A package go list reports an error for (a missing directory, a bad
// import), a package that fails to parse, and a pattern that matches no
// package are all errors, so a mistyped pattern never analyzes nothing in
// silence; packages with type errors are returned with TypeErrors set so
// callers can decide.
func Load(dir string, patterns ...string) ([]*Package, error) {
	listed, err := goList(dir, patterns...)
	if err != nil {
		return nil, err
	}
	matched := make(map[string]bool, len(patterns))
	for _, lp := range listed {
		if lp.Error != nil {
			return nil, fmt.Errorf("framework: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		for _, m := range lp.Match {
			matched[m] = true
		}
	}
	for _, pat := range patterns {
		if !matched[pat] {
			return nil, fmt.Errorf("framework: pattern %q matched no packages", pat)
		}
	}
	fset := token.NewFileSet()
	imp := exportImporterFor(fset, listed)

	var out []*Package
	for _, lp := range listed {
		if lp.DepOnly || len(lp.GoFiles) == 0 {
			continue
		}
		pkg := &Package{
			ImportPath: lp.ImportPath,
			Fset:       fset,
			Sources:    make(map[string][]byte, len(lp.GoFiles)),
		}
		for _, gf := range lp.GoFiles {
			path := filepath.Join(lp.Dir, gf)
			src, err := os.ReadFile(path)
			if err != nil {
				return nil, fmt.Errorf("framework: %v", err)
			}
			pkg.Sources[path] = src
			f, err := parser.ParseFile(fset, path, src, parser.ParseComments)
			if err != nil {
				return nil, fmt.Errorf("framework: parsing %s: %v", path, err)
			}
			pkg.Files = append(pkg.Files, f)
		}
		info := NewTypesInfo()
		conf := types.Config{
			Importer: imp,
			Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
		}
		tpkg, _ := conf.Check(lp.ImportPath, fset, pkg.Files, info)
		pkg.Types = tpkg
		pkg.TypesInfo = info
		out = append(out, pkg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ImportPath < out[j].ImportPath })
	return out, nil
}
