package lint

import (
	"go/types"
	"reflect"
	"strings"
)

// TypeRef names a type by package path and type name, for configuring the
// document-closure rules ("lifting/internal/experiment".Document).
type TypeRef struct {
	//lint:allow one-value TestNoFloatInDocumentFixture and TestNoTimeInResultsFixture root their fixtures' documents
	Pkg string
	//lint:allow one-value TestNoFloatInDocumentFixture and TestNoTimeInResultsFixture root their fixtures' documents
	Name string
}

// fieldVisitor is called for every marshalled field the document closure
// reaches. owner is the struct type declaring the field.
type fieldVisitor func(owner *types.Named, field *types.Var, tag string)

// walkDocument walks the marshalled-field graph from the root types: every
// exported field not tagged json:"-", recursing through pointers, slices,
// arrays, maps and module-local named struct types. It returns the set of
// module-local named types visited (keyed by their *types.TypeName), so
// callers can additionally inspect those types' methods.
//
// The walk deliberately stops at types defined outside the module: their
// fields are not ours to annotate, and the rules flag the offending std
// types (time.Time, float64) at the field that embeds them.
func walkDocument(pass *Pass, roots []TypeRef, visit fieldVisitor) map[*types.TypeName]bool {
	inModule := make(map[string]*Package, len(pass.Module))
	for _, p := range pass.Module {
		inModule[p.Path] = p
	}
	visited := make(map[*types.TypeName]bool)
	var queue []*types.Named

	enqueue := func(n *types.Named) {
		if obj := n.Obj(); obj.Pkg() != nil && inModule[obj.Pkg().Path()] != nil && !visited[obj] {
			visited[obj] = true
			queue = append(queue, n)
		}
	}

	for _, ref := range roots {
		pkg := inModule[ref.Pkg]
		if pkg == nil || pkg.Types == nil {
			pass.Report(0, "document root %s.%s: package not loaded", ref.Pkg, ref.Name)
			continue
		}
		obj, ok := pkg.Types.Scope().Lookup(ref.Name).(*types.TypeName)
		if !ok {
			pass.Report(0, "document root %s.%s: no such type", ref.Pkg, ref.Name)
			continue
		}
		if named, ok := obj.Type().(*types.Named); ok {
			enqueue(named)
		}
	}

	var descend func(t types.Type)
	var walkStruct func(owner *types.Named, st *types.Struct)
	descend = func(t types.Type) {
		switch t := types.Unalias(t).(type) {
		case *types.Pointer:
			descend(t.Elem())
		case *types.Slice:
			descend(t.Elem())
		case *types.Array:
			descend(t.Elem())
		case *types.Map:
			descend(t.Key())
			descend(t.Elem())
		case *types.Named:
			enqueue(t)
		case *types.Struct:
			// Anonymous struct literal: its fields marshal in place, but it
			// has no defining TypeName to queue — walk it against the
			// enclosing owner at visit time instead (handled by walkStruct).
		}
	}
	walkStruct = func(owner *types.Named, st *types.Struct) {
		for i := 0; i < st.NumFields(); i++ {
			field, tag := st.Field(i), st.Tag(i)
			if jsonSkipped(field, tag) {
				continue
			}
			visit(owner, field, tag)
			if anon, ok := types.Unalias(field.Type()).(*types.Struct); ok {
				walkStruct(owner, anon)
				continue
			}
			descend(field.Type())
		}
	}
	for len(queue) > 0 {
		named := queue[0]
		queue = queue[1:]
		if st, ok := named.Underlying().(*types.Struct); ok {
			walkStruct(named, st)
		}
	}
	return visited
}

// jsonSkipped reports whether encoding/json would omit the field entirely:
// unexported, or explicitly tagged json:"-".
func jsonSkipped(field *types.Var, tag string) bool {
	if !field.Exported() && !field.Embedded() {
		return true
	}
	jt := reflect.StructTag(tag).Get("json")
	return jt == "-"
}

// typeHas walks a field's type structurally — through pointers, slices,
// arrays and map key/elem — applying pred to every type encountered. It
// stops at named types without entering their declarations (the closure
// walk owns recursion into module structs).
func typeHas(t types.Type, pred func(types.Type) bool) bool {
	if pred(t) {
		return true
	}
	switch t := types.Unalias(t).(type) {
	case *types.Pointer:
		return typeHas(t.Elem(), pred)
	case *types.Slice:
		return typeHas(t.Elem(), pred)
	case *types.Array:
		return typeHas(t.Elem(), pred)
	case *types.Map:
		return typeHas(t.Key(), pred) || typeHas(t.Elem(), pred)
	}
	return false
}

// hasSuffixAny reports whether s ends in one of the suffixes.
func hasSuffixAny(s string, suffixes []string) bool {
	for _, suf := range suffixes {
		if strings.HasSuffix(s, suf) {
			return true
		}
	}
	return false
}
