// Package scratchalias implements the depsenselint analyzer that keeps
// scratch-buffer memory from escaping.
//
// A struct marked with a "//depsense:scratch" doc directive (core.Scratch)
// owns buffers that the next fit will overwrite in place. Handing one of
// those slices to a caller that retains it — a Result field, some other
// struct's field — is the classic aliasing bug: the caller's "result"
// silently mutates on the next iteration. The repo convention is to copy
// on the way out (append([]float64(nil), eng.post...)).
//
// scratchalias tracks scratch-backed values lexically within each
// function: a read of a marked struct's slice/pointer field is tainted,
// taint flows through local assignment, slicing, and indexing, and any
// other call (append, copy, Clone) launders it. Violations:
//
//   - a tainted value stored into a struct field or composite-literal
//     field (it outlives the frame);
//   - a tainted value returned by an exported function (the caller cannot
//     know it borrowed).
//
// An unexported function returning tainted memory is the deliberate borrow
// pattern (a helper handing its caller a scratch buffer to fill): instead
// of a finding it gets a ReturnsScratch object fact, so its callers — in
// this package or any importing one — propagate the taint and are held to
// the same rules. An
// exported function may opt into the same borrow semantics with a
// "//depsense:borrows" doc directive; without it, returning scratch memory
// across the API boundary is a finding.
package scratchalias

import (
	"go/ast"
	"go/types"
	"strings"

	"depsense/internal/analysis/framework"
	"depsense/internal/analysis/zonefacts"
)

// ScratchMarker is the doc directive marking a scratch-owning struct.
const ScratchMarker = "//depsense:scratch"

// BorrowMarker is the doc directive by which an exported function declares
// that it intentionally returns scratch-backed memory (borrow semantics).
const BorrowMarker = "//depsense:borrows"

// ReturnsScratch is the object fact on functions that return
// scratch-backed memory (the borrow pattern).
type ReturnsScratch struct{}

// AFact marks ReturnsScratch as a framework fact.
func (*ReturnsScratch) AFact() {}

// Analyzer flags scratch-backed memory escaping into retained storage.
var Analyzer = &framework.Analyzer{
	Name: "scratchalias",
	Doc: "forbid slices of //depsense:scratch structs from escaping into struct fields, " +
		"composite literals, or exported-function returns; export ReturnsScratch facts for borrows",
	Requires: []*framework.Analyzer{zonefacts.Analyzer},
	Run:      run,
}

func run(pass *framework.Pass) error {
	fields := scratchFields(pass)
	funcs := packageFuncs(pass)

	// Fixed point over the package's functions: a function returning a
	// tainted value taints its callers' results, which may make more
	// functions borrow-returners.
	borrows := map[*types.Func]bool{}
	for changed := true; changed; {
		changed = false
		for fn, decl := range funcs {
			if borrows[fn] {
				continue
			}
			if returnsTainted(pass, decl, fields, borrows) {
				borrows[fn] = true
				changed = true
			}
		}
	}
	for fn, decl := range funcs {
		if !borrows[fn] {
			continue
		}
		if fn.Exported() && !hasBorrowMarker(decl) {
			continue // reported below, at the return site
		}
		if err := pass.ExportObjectFact(fn, &ReturnsScratch{}); err != nil {
			// Unkeyable objects stay package-local.
			continue
		}
	}

	for fn, decl := range funcs {
		checkFunc(pass, fn, decl, fields, borrows)
	}
	return nil
}

// hasBorrowMarker reports whether decl's doc carries //depsense:borrows.
func hasBorrowMarker(decl *ast.FuncDecl) bool {
	if decl.Doc == nil {
		return false
	}
	for _, c := range decl.Doc.List {
		if strings.HasPrefix(c.Text, BorrowMarker) {
			return true
		}
	}
	return false
}

// scratchFields collects the slice/pointer fields of //depsense:scratch
// structs declared in this package.
func scratchFields(pass *framework.Pass) map[*types.Var]bool {
	fields := map[*types.Var]bool{}
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				if !hasMarker(gd.Doc) && !hasMarker(ts.Doc) {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, f := range st.Fields.List {
					for _, name := range f.Names {
						v, ok := pass.TypesInfo.Defs[name].(*types.Var)
						if !ok {
							continue
						}
						switch v.Type().Underlying().(type) {
						case *types.Slice, *types.Pointer, *types.Map:
							fields[v] = true
						}
					}
				}
			}
		}
	}
	return fields
}

func hasMarker(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.HasPrefix(c.Text, ScratchMarker) {
			return true
		}
	}
	return false
}

// packageFuncs indexes the package's function declarations.
func packageFuncs(pass *framework.Pass) map[*types.Func]*ast.FuncDecl {
	funcs := map[*types.Func]*ast.FuncDecl{}
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				funcs[fn] = fd
			}
		}
	}
	return funcs
}

// taintTracker evaluates scratch taint lexically within one function.
type taintTracker struct {
	pass    *framework.Pass
	fields  map[*types.Var]bool
	borrows map[*types.Func]bool
	locals  map[*types.Var]bool
}

func (t *taintTracker) tainted(e ast.Expr) bool {
	// Only reference-shaped values alias scratch memory: indexing a
	// scratch []float64 yields a scalar copy, which is always safe.
	if tv, ok := t.pass.TypesInfo.Types[e]; ok && !aliasing(tv.Type) {
		return false
	}
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		if sel, ok := t.pass.TypesInfo.Selections[e]; ok && sel.Kind() == types.FieldVal {
			if v, ok := sel.Obj().(*types.Var); ok && t.fields[v] {
				return true
			}
		}
		return false
	case *ast.Ident:
		if v, ok := t.pass.TypesInfo.Uses[e].(*types.Var); ok {
			return t.locals[v]
		}
		return false
	case *ast.IndexExpr:
		return t.tainted(e.X)
	case *ast.SliceExpr:
		return t.tainted(e.X) // reslicing still aliases the backing array
	case *ast.CallExpr:
		return t.callReturnsScratch(e)
	case *ast.UnaryExpr:
		return t.tainted(e.X)
	case *ast.StarExpr:
		return t.tainted(e.X)
	}
	return false
}

// aliasing reports whether values of type t can share backing memory with
// a scratch buffer.
func aliasing(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Slice, *types.Pointer, *types.Map, *types.Chan, *types.Interface:
		return true
	}
	return false
}

// callReturnsScratch reports whether the call's callee is a known borrow
// returner — from this package's fixed point or an imported package's
// ReturnsScratch fact.
func (t *taintTracker) callReturnsScratch(call *ast.CallExpr) bool {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = t.pass.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		obj = t.pass.TypesInfo.Uses[fun.Sel]
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	if t.borrows[fn] {
		return true
	}
	var fact ReturnsScratch
	return t.pass.ImportObjectFact(fn, &fact)
}

// returnsTainted reports whether any return in decl (outside nested
// function literals) yields a tainted value, tracking local assignments on
// the way.
func returnsTainted(pass *framework.Pass, decl *ast.FuncDecl, fields map[*types.Var]bool, borrows map[*types.Func]bool) bool {
	t := &taintTracker{pass: pass, fields: fields, borrows: borrows, locals: map[*types.Var]bool{}}
	found := false
	walkFrame(decl.Body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.AssignStmt:
			t.recordAssign(n)
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if t.tainted(r) {
					found = true
				}
			}
		}
	})
	return found
}

// recordAssign updates local taint for ident := / = tainted-expr.
func (t *taintTracker) recordAssign(a *ast.AssignStmt) {
	if len(a.Lhs) != len(a.Rhs) {
		return
	}
	for i, lhs := range a.Lhs {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			continue
		}
		v, ok := t.pass.TypesInfo.Defs[id].(*types.Var)
		if !ok {
			v, ok = t.pass.TypesInfo.Uses[id].(*types.Var)
		}
		if !ok || v.IsField() {
			continue
		}
		t.locals[v] = t.tainted(a.Rhs[i])
	}
}

// checkFunc reports escapes of tainted values in one function.
func checkFunc(pass *framework.Pass, fn *types.Func, decl *ast.FuncDecl, fields map[*types.Var]bool, borrows map[*types.Func]bool) {
	t := &taintTracker{pass: pass, fields: fields, borrows: borrows, locals: map[*types.Var]bool{}}
	walkFrame(decl.Body, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.AssignStmt:
			t.checkStores(n)
			t.recordAssign(n)
		case *ast.CompositeLit:
			t.checkComposite(n)
		case *ast.ReturnStmt:
			if !fn.Exported() || hasBorrowMarker(decl) {
				return // deliberate borrow: covered by the ReturnsScratch fact
			}
			for _, r := range n.Results {
				if t.tainted(r) {
					pass.Reportf(r.Pos(),
						"exported %s returns scratch-backed memory the caller will retain; "+
							"copy it out (append([]float64(nil), x...)) before returning",
						fn.Name())
				}
			}
		}
	})
}

// checkStores flags tainted values assigned into struct fields that are not
// themselves scratch fields.
func (t *taintTracker) checkStores(a *ast.AssignStmt) {
	if len(a.Lhs) != len(a.Rhs) {
		return
	}
	for i, lhs := range a.Lhs {
		sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
		if !ok || !t.tainted(a.Rhs[i]) {
			continue
		}
		if s, ok := t.pass.TypesInfo.Selections[sel]; ok && s.Kind() == types.FieldVal {
			if v, ok := s.Obj().(*types.Var); ok && t.fields[v] {
				continue // scratch-to-scratch is the buffer's own bookkeeping
			}
		}
		t.pass.Reportf(a.Rhs[i].Pos(),
			"scratch-backed memory stored into field %s outlives the fit that owns it; copy it out first",
			types.ExprString(lhs))
	}
}

// checkComposite flags tainted values placed in struct-literal fields.
func (t *taintTracker) checkComposite(lit *ast.CompositeLit) {
	tv, ok := t.pass.TypesInfo.Types[lit]
	if !ok {
		return
	}
	if _, isStruct := tv.Type.Underlying().(*types.Struct); !isStruct {
		return
	}
	for _, elt := range lit.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			if t.tainted(elt) {
				t.pass.Reportf(elt.Pos(),
					"scratch-backed memory stored into a composite literal outlives the fit that owns it; copy it out first")
			}
			continue
		}
		if t.tainted(kv.Value) {
			t.pass.Reportf(kv.Value.Pos(),
				"scratch-backed memory stored into field %s outlives the fit that owns it; copy it out first",
				types.ExprString(kv.Key))
		}
	}
}

// walkFrame visits decl-body nodes in source order without descending into
// nested function literals (each literal is its own frame for the lexical
// taint scan; escapes via closures are out of scope for this analyzer).
func walkFrame(body *ast.BlockStmt, visit func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}
