package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// OneValue flags a knob nobody turns: a struct field that every non-test
// write sets to the same constant, and a parameter that every non-test call
// passes the same constant. A setting no caller varies is neither mechanism
// nor policy; it becomes a literal or a named constant. The details
// (DESIGN.md, "Determinism lint"):
//
//   - a write is what no-orphan counts as one; it is constant when the value
//     written is a go/types constant or untyped nil, and values compare by
//     value (constant.Compare), so a named constant and its literal agree;
//   - a keyed literal that omits a field writes the field's zero value, and
//     var x T, new(T) and make of a container of T write it to every field
//     of T; a zero write can hide a finding but never makes one;
//   - any other write (a flag, a computed value, ++, &x.f, a pointer method
//     through the field) clears the field;
//   - a parameter counts when its function is unexported or no other package
//     calls it; it is exempt when the function is referenced other than by a
//     call (a callback, whose callers are unseen), when an interface
//     declares a method of its name (as in no-orphan), when it is variadic,
//     and wherever one call passes a tuple, f(g()).
//
// Writes and calls count across the whole module; findings are reported only
// at declarations in Packages. A setting kept on purpose names who needs it:
//
//	//lint:allow one-value <the caller or test that needs it>
type OneValue struct {
	// Packages are where declarations are reported.
	Packages PackageSet
}

func (OneValue) Name() string           { return "one-value" }
func (a OneValue) packages() PackageSet { return a.Packages }
func (OneValue) Doc() string {
	return "flag struct fields every non-test write sets to one constant, and parameters every non-test call passes one constant"
}

// oneValueHint ends every finding: what to do about it.
const oneValueHint = "; make it a literal or a named constant, or name the caller or test that needs it in a //lint:allow"

// setting is what the non-test code sets one field or parameter to.
type setting struct {
	val    constant.Value // the one value seen so far; nil is untyped nil
	text   string         // how the first write spelled a value out
	seen   bool           // some write or call set val
	named  bool           // some write or call spelled a value out
	varied bool           // a second value, or one that is not a constant
}

// add records one value; ok is false for a value that is not a constant.
func (s *setting) add(v constant.Value, ok bool) {
	switch {
	case !ok:
		s.varied = true
	case !s.seen:
		s.val, s.seen = v, true
	case !sameValue(s.val, v):
		s.varied = true
	}
}

// set records an expression written or passed.
func (s *setting) set(info *types.Info, e ast.Expr) {
	s.named = true
	if s.text == "" && e != nil {
		s.text = types.ExprString(e)
	}
	if e == nil {
		s.add(nil, false)
		return
	}
	tv := info.Types[e]
	s.add(tv.Value, tv.Value != nil || tv.IsNil())
}

// one reports whether every value recorded is the same spelled-out constant.
func (s *setting) one() bool { return s.named && !s.varied }

// zeroValue is the zero value of t as a constant; ok is false when t's zero
// value is no constant (a struct, an array, a type parameter).
func zeroValue(t types.Type) (v constant.Value, ok bool) {
	if _, ok := t.(*types.TypeParam); ok {
		return nil, false
	}
	switch u := t.Underlying().(type) {
	case *types.Basic:
		switch {
		case u.Info()&types.IsBoolean != 0:
			return constant.MakeBool(false), true
		case u.Info()&types.IsString != 0:
			return constant.MakeString(""), true
		case u.Info()&types.IsNumeric != 0:
			return constant.MakeInt64(0), true
		}
		return nil, u.Kind() == types.UnsafePointer
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Signature, *types.Interface:
		return nil, true
	}
	return nil, false
}

// sameValue compares two constants by value; nil is untyped nil.
func sameValue(a, b constant.Value) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	numeric := func(v constant.Value) bool {
		k := v.Kind()
		return k == constant.Int || k == constant.Float || k == constant.Complex
	}
	if a.Kind() != b.Kind() && !(numeric(a) && numeric(b)) {
		return false
	}
	return constant.Compare(a, token.EQL, b)
}

// show prints the one value in a finding: as written, and by value where
// that differs (msg.ReasonNoAck (4)).
func (s *setting) show() string {
	v := "nil"
	if s.val != nil {
		v = s.val.String()
	}
	if s.text == v {
		return v
	}
	return s.text + " (" + v + ")"
}

// oneValueFunc is a declared function whose parameters are tracked.
type oneValueFunc struct {
	decl     *ast.FuncDecl
	params   []*setting // nil for a variadic parameter
	names    []*ast.Ident
	callback bool // referenced other than by a call
	external bool // called from another package
}

func (a OneValue) RunModule(pass *Pass) {
	implementable := interfaceMethodNames(pass.Module)
	fields := make(map[*types.Var]*setting)
	owners := make(map[*types.Var]string)
	funcs := make(map[*types.Func]*oneValueFunc)
	for _, pkg := range pass.Module {
		if !a.Packages.Match(pkg.Path) {
			continue
		}
		for _, f := range pkg.Files {
			forEachField(pkg.Info, f, func(field *types.Var, owner string) {
				if _, ok := zeroValue(field.Type()); ok {
					fields[field], owners[field] = &setting{}, owner
				}
			})
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Recv != nil && implementable[fd.Name.Name] {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				fn := &oneValueFunc{decl: fd}
				sig := obj.Type().(*types.Signature)
				for _, fl := range fd.Type.Params.List {
					for _, name := range fl.Names {
						var s *setting
						if !sig.Variadic() || len(fn.params) < sig.Params().Len()-1 {
							s = &setting{}
						}
						fn.params, fn.names = append(fn.params, s), append(fn.names, name)
					}
				}
				if len(fn.params) > 0 {
					funcs[obj] = fn
				}
			}
		}
	}

	called := make(map[*ast.Ident]bool)
	for _, pkg := range pass.Module {
		info := pkg.Info
		for _, f := range pkg.Files {
			forEachWrite(info, f, func(v *types.Var, value ast.Expr) {
				if s := fields[v.Origin()]; s != nil {
					s.set(info, value)
				}
			}, func(v *types.Var) {
				if s := fields[v.Origin()]; s != nil {
					s.add(zeroValue(v.Type()))
				}
			})
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				id := identOf(call.Fun)
				obj, _ := info.Uses[id].(*types.Func)
				if obj == nil || funcs[obj.Origin()] == nil {
					return true
				}
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && info.Selections[sel] != nil && info.Selections[sel].Kind() == types.MethodExpr {
					return true // T.m(recv, …): the receiver shifts the arguments
				}
				fn := funcs[obj.Origin()]
				called[id] = true
				fn.external = fn.external || pkg.Types != obj.Pkg()
				var tuple bool // f(g()): no one argument per parameter
				if len(call.Args) == 1 {
					_, tuple = info.TypeOf(call.Args[0]).(*types.Tuple)
				}
				for i, s := range fn.params {
					switch {
					case s == nil:
					case tuple:
						s.set(info, nil)
					case i < len(call.Args):
						s.set(info, call.Args[i])
					}
				}
				return true
			})
		}
	}
	for _, pkg := range pass.Module {
		for id, obj := range pkg.Info.Uses {
			if fn, ok := obj.(*types.Func); ok && funcs[fn.Origin()] != nil && !called[id] {
				funcs[fn.Origin()].callback = true
			}
		}
	}

	for field, s := range fields {
		if s.one() {
			pass.Report(field.Pos(), "field %s.%s.%s is set to %s by every non-test write"+oneValueHint,
				field.Pkg().Name(), owners[field], field.Name(), s.show())
		}
	}
	for obj, fn := range funcs {
		if fn.callback || obj.Exported() && fn.external {
			continue
		}
		for i, s := range fn.params {
			if s != nil && s.one() {
				pass.Report(fn.names[i].Pos(), "parameter %s of %s is passed %s by every non-test call"+oneValueHint,
					fn.names[i].Name, funcName(obj, fn.decl), s.show())
			}
		}
	}
}
