package framework

import (
	"fmt"
	"go/types"
	"reflect"
)

// A Fact is a typed, serializable property attached to a package or to a
// package-level object (function, method, type, var), produced by one
// analyzer and consumed by analyzers that declare it in Requires. It mirrors
// golang.org/x/tools/go/analysis.Fact: fact types must be pointers to
// structs. Facts live in memory for one driver run and are never
// serialized.
//
// Facts propagate through the import graph: the driver analyzes packages in
// dependency order, so when an analyzer runs on package P it can import
// facts previously exported for any package P imports (directly or
// transitively). This is what lets zone membership and returns-scratch-memory
// properties follow the call graph instead of living in hard-coded maps.
type Fact interface {
	// AFact is a marker method; implementing it declares the type a Fact.
	AFact()
}

// objectKey names one package-level object portably across load mechanisms.
// A source-checked package and the same package imported from export data
// produce distinct types.Object pointers for the same declaration, so facts
// are keyed by (package path, object key) strings instead of object
// identity. Methods are keyed "Recv.Name"; everything else "Name".
// Non-package-level objects (locals, struct fields) have no stable key and
// cannot carry object facts — encode those in a package fact instead.
func objectKey(obj types.Object) (string, bool) {
	if obj == nil || obj.Pkg() == nil {
		return "", false
	}
	if fn, ok := obj.(*types.Func); ok {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			t := sig.Recv().Type()
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			named, ok := t.(*types.Named)
			if !ok {
				return "", false
			}
			return named.Obj().Name() + "." + fn.Name(), true
		}
		return fn.Name(), true
	}
	// Package-level vars, types, consts: scope lookup must find the object
	// itself, otherwise it is not package-level.
	if obj.Pkg().Scope().Lookup(obj.Name()) != obj {
		return "", false
	}
	return obj.Name(), true
}

// factKey addresses one fact in the store. Object is "" for package facts.
type factKey struct {
	pkg    string // import path
	object string // objectKey, "" for a package-level fact
	typ    string // fact type name, e.g. "*zonefacts.ZoneFact"
}

func factTypeName(f Fact) string { return fmt.Sprintf("%T", f) }

// factStore holds every fact exported during one driver run.
type factStore struct {
	m map[factKey]Fact
}

func newFactStore() *factStore { return &factStore{m: map[factKey]Fact{}} }

func (s *factStore) set(k factKey, f Fact) { s.m[k] = f }

// get copies the stored fact for k into ptr (which must be a pointer to the
// fact's struct type) and reports whether a fact was found.
func (s *factStore) get(k factKey, ptr Fact) bool {
	f, ok := s.m[k]
	if !ok {
		return false
	}
	rv := reflect.ValueOf(ptr)
	fv := reflect.ValueOf(f)
	if rv.Kind() != reflect.Pointer || rv.IsNil() || rv.Type() != fv.Type() {
		return false
	}
	rv.Elem().Set(fv.Elem())
	return true
}

// ExportObjectFact attaches fact to obj, a package-level object of the
// package under analysis. Exporting a fact for an object the key scheme
// cannot name (locals, fields) is a hard error: the analyzer is relying on
// propagation that will silently not happen.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) error {
	key, ok := objectKey(obj)
	if !ok {
		return fmt.Errorf("framework: cannot export %s fact for non-package-level object %v", factTypeName(fact), obj)
	}
	p.facts.set(factKey{pkg: obj.Pkg().Path(), object: key, typ: factTypeName(fact)}, fact)
	return nil
}

// ImportObjectFact copies the fact of ptr's type previously exported for obj
// into *ptr. obj may belong to the package under analysis or to any
// dependency analyzed earlier.
func (p *Pass) ImportObjectFact(obj types.Object, ptr Fact) bool {
	key, ok := objectKey(obj)
	if !ok {
		return false
	}
	return p.facts.get(factKey{pkg: obj.Pkg().Path(), object: key, typ: factTypeName(ptr)}, ptr)
}

// ExportPackageFact attaches fact to the package under analysis.
func (p *Pass) ExportPackageFact(fact Fact) error {
	p.facts.set(factKey{pkg: p.Path, typ: factTypeName(fact)}, fact)
	return nil
}

// ImportPackageFact copies the package fact of ptr's type for the package
// with the given import path (the package under analysis or any dependency
// analyzed earlier) into *ptr.
func (p *Pass) ImportPackageFact(path string, ptr Fact) bool {
	return p.facts.get(factKey{pkg: path, typ: factTypeName(ptr)}, ptr)
}
