// Package mutexguard implements the depsenselint analyzer that enforces
// "guarded by" annotations on struct fields.
//
// A struct field whose doc or line comment contains "guarded by <mu>"
// declares that every access to the field must happen with the sibling
// mutex <mu> held. The serving stack's shared state — the obs metrics
// registry, the trace flight recorder and builder — carries these
// annotations; before this analyzer the discipline lived in prose and was
// enforced only by the race detector's luck.
//
// The check is lexical within the innermost enclosing function: an access
// to x.f (f guarded by mu) is accepted when a preceding x.mu.Lock() or
// x.mu.RLock() call dominates it with no non-deferred x.mu.Unlock() in
// between. Three escapes avoid false positives on the standard patterns:
//
//   - methods whose name ends in "Locked" document a held-lock
//     precondition and are exempt;
//   - accesses through a local variable declared inside the function
//     (constructor pattern: the struct has not escaped yet) are exempt;
//   - anything else provably safe carries //lint:allow mutexguard <reason>.
//
// Guard annotations are also exported as a package fact, so accesses to an
// exported guarded field from another package are held to the same
// contract.
package mutexguard

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"

	"depsense/internal/analysis/framework"
	"depsense/internal/analysis/zonefacts"
)

// Guard records one annotated field.
type Guard struct {
	Struct string `json:"struct"`
	Field  string `json:"field"`
	Mutex  string `json:"mutex"`
}

// Guards is the package fact listing every guarded field a package
// declares, letting importing packages enforce the same contract on
// exported fields.
type Guards struct {
	Fields []Guard `json:"fields"`
}

// AFact marks Guards as a framework fact.
func (*Guards) AFact() {}

// Analyzer enforces guarded-by field annotations.
var Analyzer = &framework.Analyzer{
	Name: "mutexguard",
	Doc: "flag accesses to struct fields annotated \"guarded by <mu>\" made without " +
		"holding the mutex (lexically, in the enclosing function)",
	Requires: []*framework.Analyzer{zonefacts.Analyzer},
	Run:      run,
}

var guardedRe = regexp.MustCompile(`guarded by (\w+)`)

// fieldGuard is the resolved in-package form of a Guard.
type fieldGuard struct {
	structName string
	mutex      string
}

func run(pass *framework.Pass) error {
	guards := collectGuards(pass)
	fact := &Guards{}
	for obj, g := range guards {
		fact.Fields = append(fact.Fields, Guard{Struct: g.structName, Field: obj.Name(), Mutex: g.mutex})
	}
	sortGuards(fact.Fields)
	if err := pass.ExportPackageFact(fact); err != nil {
		return err
	}

	for _, file := range pass.Files {
		checkFile(pass, file, guards)
	}
	return nil
}

// collectGuards scans the package's struct declarations for guarded-by
// annotations, validating that the named mutex is a sibling field of a
// sync.Mutex/RWMutex type.
func collectGuards(pass *framework.Pass) map[*types.Var]fieldGuard {
	guards := map[*types.Var]fieldGuard{}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			mutexFields := map[string]bool{}
			for _, f := range st.Fields.List {
				for _, name := range f.Names {
					if obj, ok := pass.TypesInfo.Defs[name].(*types.Var); ok && isMutex(obj.Type()) {
						mutexFields[name.Name] = true
					}
				}
			}
			for _, f := range st.Fields.List {
				mu := guardAnnotation(f)
				if mu == "" {
					continue
				}
				if !mutexFields[mu] {
					pass.Reportf(f.Pos(),
						"field annotated \"guarded by %s\" but %s.%s is not a sync.Mutex/RWMutex sibling field",
						mu, ts.Name.Name, mu)
					continue
				}
				for _, name := range f.Names {
					if obj, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
						guards[obj] = fieldGuard{structName: ts.Name.Name, mutex: mu}
					}
				}
			}
			return true
		})
	}
	return guards
}

// guardAnnotation returns the mutex name from the field's doc or line
// comment, or "".
func guardAnnotation(f *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{f.Doc, f.Comment} {
		if cg == nil {
			continue
		}
		if m := guardedRe.FindStringSubmatch(cg.Text()); m != nil {
			return m[1]
		}
	}
	return ""
}

// checkFile walks one file tracking the enclosing-function stack and
// verifies every guarded-field access.
func checkFile(pass *framework.Pass, file *ast.File, guards map[*types.Var]fieldGuard) {
	var stack []ast.Node // full node stack, innermost last
	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		selection, ok := pass.TypesInfo.Selections[sel]
		if !ok || selection.Kind() != types.FieldVal {
			return true
		}
		field, ok := selection.Obj().(*types.Var)
		if !ok {
			return true
		}
		g, guarded := lookupGuard(pass, guards, field, namedTypeName(selection.Recv()))
		if !guarded {
			return true
		}
		body, funcName := enclosingFunc(stack)
		if body == nil {
			return true // package-level initializer; nothing to lock yet
		}
		if strings.HasSuffix(funcName, "Locked") {
			return true // documented held-lock precondition
		}
		base := types.ExprString(sel.X)
		if localToBody(pass, sel.X, body) {
			return true // constructor pattern: the struct has not escaped
		}
		if !heldAt(body, base, g.mutex, sel.Pos()) {
			pass.Reportf(sel.Pos(),
				"%s.%s is guarded by %s but accessed without %s.%s held in %s; "+
					"lock first (or rename the helper *Locked / suppress with //lint:allow mutexguard <reason>)",
				g.structName, field.Name(), g.mutex, base, g.mutex, funcName)
		}
		return true
	})
}

// lookupGuard resolves a field's guard: object identity for fields declared
// in this package, the exporting package's Guards fact otherwise.
func lookupGuard(pass *framework.Pass, guards map[*types.Var]fieldGuard, field *types.Var, recvName string) (fieldGuard, bool) {
	if g, ok := guards[field]; ok {
		return g, true
	}
	if field.Pkg() == nil || field.Pkg() == pass.Pkg {
		return fieldGuard{}, false
	}
	var remote Guards
	if !pass.ImportPackageFact(field.Pkg().Path(), &remote) {
		return fieldGuard{}, false
	}
	for _, g := range remote.Fields {
		if g.Field == field.Name() && (recvName == "" || g.Struct == recvName) {
			return fieldGuard{structName: g.Struct, mutex: g.Mutex}, true
		}
	}
	return fieldGuard{}, false
}

// namedTypeName returns the name of t's (possibly pointer-wrapped) named
// type, or "".
func namedTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// enclosingFunc returns the innermost function body on the stack and a
// printable name for it.
func enclosingFunc(stack []ast.Node) (*ast.BlockStmt, string) {
	for i := len(stack) - 1; i >= 0; i-- {
		switch fn := stack[i].(type) {
		case *ast.FuncLit:
			return fn.Body, "a function literal"
		case *ast.FuncDecl:
			return fn.Body, fn.Name.Name
		}
	}
	return nil, ""
}

// localToBody reports whether expr is (rooted at) a local variable declared
// inside body — the constructor pattern, where the value cannot be shared
// yet.
func localToBody(pass *framework.Pass, expr ast.Expr, body *ast.BlockStmt) bool {
	for {
		if sel, ok := expr.(*ast.SelectorExpr); ok {
			expr = sel.X
			continue
		}
		break
	}
	id, ok := expr.(*ast.Ident)
	if !ok {
		return false
	}
	obj := pass.TypesInfo.Uses[id]
	if obj == nil {
		obj = pass.TypesInfo.Defs[id]
	}
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() {
		return false
	}
	// Parameters and receivers are declared at the function's Pos, before
	// the body; true locals are declared inside it.
	return v.Pos() > body.Pos() && v.Pos() < body.End()
}

// heldAt reports whether base's mutex is lexically held at pos inside body:
// a base.mutex.Lock()/RLock() call precedes pos with no non-deferred
// Unlock/RUnlock between the lock and pos.
func heldAt(body *ast.BlockStmt, base, mutex string, pos token.Pos) bool {
	held := false
	var walk func(n ast.Node, inDefer bool)
	walk = func(n ast.Node, inDefer bool) {
		if n == nil {
			return
		}
		if _, ok := n.(*ast.FuncLit); ok {
			// pos is in body's own frame (body is its innermost function),
			// so lock state inside nested literals is irrelevant to it.
			return
		}
		if d, ok := n.(*ast.DeferStmt); ok {
			walk(d.Call, true)
			return
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if kind := lockCallOn(call, base, mutex); kind != "" && call.Pos() < pos {
				switch kind {
				case "lock":
					held = true
				case "unlock":
					if !inDefer {
						held = false
					}
				}
			}
		}
		// Children in source order keeps the lexical scan faithful.
		ast.Inspect(n, func(c ast.Node) bool {
			if c == nil || c == n {
				return true
			}
			walk(c, inDefer)
			return false
		})
	}
	walk(body, false)
	return held
}

// lockCallOn classifies call as a lock/unlock of base.mutex, or "".
func lockCallOn(call *ast.CallExpr, base, mutex string) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	var kind string
	switch sel.Sel.Name {
	case "Lock", "RLock":
		kind = "lock"
	case "Unlock", "RUnlock":
		kind = "unlock"
	default:
		return ""
	}
	muSel, ok := sel.X.(*ast.SelectorExpr)
	if !ok || muSel.Sel.Name != mutex {
		return ""
	}
	if types.ExprString(muSel.X) != base {
		return ""
	}
	return kind
}

// isMutex reports whether t (or *t) is sync.Mutex or sync.RWMutex.
func isMutex(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

func sortGuards(gs []Guard) {
	for i := 1; i < len(gs); i++ {
		for j := i; j > 0 && less(gs[j], gs[j-1]); j-- {
			gs[j], gs[j-1] = gs[j-1], gs[j]
		}
	}
}

func less(a, b Guard) bool {
	if a.Struct != b.Struct {
		return a.Struct < b.Struct
	}
	return a.Field < b.Field
}
