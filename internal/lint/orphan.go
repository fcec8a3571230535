package lint

import (
	"cmp"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strconv"
)

// NoOrphan flags code that nothing which ships reaches or sets: a package no
// non-test file imports, a function or method no non-test file references
// outside its own body, and a struct field no non-test file writes. A test
// is not a caller, and a field only a test sets is a setting the product
// never varies. The details (DESIGN.md, "Determinism lint"):
//
//   - main and init are exempt; a reference through an instantiation counts
//     for the generic method;
//   - a method is exempt when an interface type declared in the module, or
//     in a package it imports directly or not, has a method of that name: a
//     call through the interface reaches it without naming it;
//   - a write is a keyed or positional composite literal, an assignment
//     (a range clause's included), ++ or --, taking an address, or calling a
//     pointer method through an addressable operand, and it counts for every
//     field on the path (c.cfg.limit = 1 writes cfg and limit).
//
// Types, variables and constants are out of scope. Code kept on purpose
// because a test of something else sets up or observes through it says so
// in place:
//
//	//lint:allow no-orphan <the test that uses it>
type NoOrphan struct{}

func (NoOrphan) Name() string { return "no-orphan" }
func (NoOrphan) Doc() string {
	return "flag packages no non-test file imports, functions and methods no non-test file references, and struct fields no non-test file writes"
}

// orphanHint ends every finding about a declaration: what to do about it.
const orphanHint = "; delete it (with its test), or name the test that needs it in a //lint:allow"

func (NoOrphan) RunModule(pass *Pass) {
	imported := make(map[string]bool)
	implementable := interfaceMethodNames(pass.Module)
	decls := make(map[types.Object]*ast.FuncDecl)
	fields := make(map[*types.Var]string) // field → its struct's name
	for _, pkg := range pass.Module {
		for _, f := range pkg.Files {
			for _, imp := range f.Imports {
				if path, err := strconv.Unquote(imp.Path.Value); err == nil {
					imported[path] = true
				}
			}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Name.Name == "_" || (fd.Recv != nil && implementable[fd.Name.Name]) ||
					(fd.Recv == nil && (fd.Name.Name == "init" || fd.Name.Name == "main" && f.Name.Name == "main")) {
					continue
				}
				if obj := pkg.Info.Defs[fd.Name]; obj != nil {
					decls[obj] = fd
				}
			}
			forEachField(pkg.Info, f, func(field *types.Var, owner string) { fields[field] = owner })
		}
	}
	for _, pkg := range pass.Module {
		for id, obj := range pkg.Info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin()
			}
			if fd := decls[obj]; fd != nil && (id.Pos() < fd.Pos() || id.Pos() >= fd.End()) {
				delete(decls, obj)
			}
		}
		for _, f := range pkg.Files {
			forEachWrite(pkg.Info, f, func(v *types.Var, _ ast.Expr) { delete(fields, v.Origin()) }, func(*types.Var) {})
		}
	}
	for obj, fd := range decls {
		if fd.Recv == nil {
			pass.Report(fd.Pos(), "%s is referenced by no non-test file"+orphanHint, funcName(obj, fd))
		} else {
			pass.Report(fd.Pos(), "%s is referenced by no non-test file and no interface has a method of that name"+orphanHint, funcName(obj, fd))
		}
	}
	for obj, owner := range fields {
		pass.Report(obj.Pos(), "field %s.%s.%s is written by no non-test file, so every reader sees its zero value"+orphanHint,
			obj.Pkg().Name(), owner, obj.Name())
	}

	for _, pkg := range pass.Module {
		if len(pkg.Files) == 0 || pkg.Types.Name() == "main" || imported[pkg.Path] || !declares(pkg) {
			continue
		}
		pass.Report(pkg.Files[0].Package, "package %s is imported by no non-test file of the module; wire it to a command or delete it", pkg.Path)
	}
}

// interfaceMethodNames collects the method names of every interface the
// module can call through: error, every interface type in the module, and
// every package-level one of every package it imports, transitively.
func interfaceMethodNames(module []*Package) map[string]bool {
	names := make(map[string]bool)
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				names[it.Method(i).Name()] = true
			}
		}
	}
	seen := make(map[*types.Package]bool)
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	add(types.Universe.Lookup("error").Type())
	for _, pkg := range module {
		visit(pkg.Types)
		for _, tv := range pkg.Info.Types {
			if tv.IsType() {
				add(tv.Type)
			}
		}
	}
	return names
}

// forEachField calls visit for every named struct field f declares, with
// the name of the type that declares it ("struct" for a literal type).
func forEachField(info *types.Info, f *ast.File, visit func(field *types.Var, owner string)) {
	owners := make(map[*ast.StructType]string)
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.TypeSpec:
			if st, ok := n.Type.(*ast.StructType); ok {
				owners[st] = n.Name.Name
			}
		case *ast.StructType:
			for _, fl := range n.Fields.List {
				for _, name := range fl.Names {
					if name.Name != "_" {
						visit(info.Defs[name].(*types.Var), cmp.Or(owners[n], "struct"))
					}
				}
			}
		}
		return true
	})
}

// funcName names a declared function or method in findings:
// "func pkg.Name" or "method pkg.(Recv).Name".
func funcName(obj types.Object, fd *ast.FuncDecl) string {
	if fd.Recv == nil {
		return "func " + obj.Pkg().Name() + "." + obj.Name()
	}
	return "method " + obj.Pkg().Name() + ".(" + types.ExprString(fd.Recv.List[0].Type) + ")." + obj.Name()
}

// forEachWrite calls write for every struct field f writes (see NoOrphan),
// as the type checker resolved it at the site, with the expression the site
// writes to it, or nil when it writes no one expression: ++, an op-assign, a
// tuple assignment, taking an address, a pointer method, a range clause, or
// a field on the path to the one written.
//
// zero is called for every field a site sets to its zero value without
// naming it: a keyed composite literal's omitted fields, and every
// field of T under var x T, new(T) and make of a container of T but an
// empty slice (through fields and array elements held by value).
func forEachWrite(info *types.Info, f *ast.File, write func(field *types.Var, value ast.Expr), zero func(*types.Var)) {
	path := func(e, value ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
				continue
			case *ast.StarExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.SelectorExpr:
				if sel := info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
					write(sel.Obj().(*types.Var), value)
				}
				e = x.X
			default:
				return
			}
			value = nil
		}
	}
	var zeroAll func(t types.Type)
	zeroAll = func(t types.Type) {
		switch u := t.Underlying().(type) {
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				zero(u.Field(i))
				zeroAll(u.Field(i).Type())
			}
		case *types.Array:
			zeroAll(u.Elem())
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			t := info.TypeOf(n)
			if p, ok := t.(*types.Pointer); ok { // an elided &T
				t = p.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				t = named.Origin()
			}
			if st, ok := t.Underlying().(*types.Struct); ok {
				set := make(map[*types.Var]bool, len(n.Elts))
				for i, elt := range n.Elts {
					v, value := st.Field(i), elt
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						v, value = info.Uses[kv.Key.(*ast.Ident)].(*types.Var).Origin(), kv.Value
					}
					set[v] = true
					write(v, value)
				}
				for i := 0; i < st.NumFields(); i++ {
					if v := st.Field(i); !set[v] {
						zero(v)
						zeroAll(v.Type())
					}
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				var value ast.Expr
				if n.Tok == token.ASSIGN && len(n.Rhs) == len(n.Lhs) {
					value = n.Rhs[i]
				}
				path(lhs, value)
			}
		case *ast.RangeStmt:
			if n.Tok == token.ASSIGN {
				for _, e := range []ast.Expr{n.Key, n.Value} {
					path(e, nil)
				}
			}
		case *ast.IncDecStmt:
			path(n.X, nil)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				path(n.X, nil)
			}
		case *ast.ValueSpec:
			if n.Type != nil && len(n.Values) == 0 {
				zeroAll(info.TypeOf(n.Type))
			}
		case *ast.CallExpr:
			b, _ := info.Uses[identOf(n.Fun)].(*types.Builtin)
			switch {
			case b == nil || len(n.Args) == 0:
			case b.Name() == "new":
				zeroAll(info.TypeOf(n.Args[0]))
			case b.Name() == "make": // a slice, map or channel; make([]T, 0, c) holds no T
				c, ok := info.TypeOf(n.Args[0]).Underlying().(interface{ Elem() types.Type })
				if _, slice := c.(*types.Slice); ok && !(slice && isZero(info, n.Args[1])) {
					zeroAll(c.Elem())
				}
			}
		case *ast.SelectorExpr:
			// A pointer method called (or taken as a value) through an
			// addressable operand takes the operand's address.
			if sel := info.Selections[n]; sel != nil && sel.Kind() == types.MethodVal {
				_, ptrRecv := sel.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer)
				if _, ptrOperand := info.TypeOf(n.X).Underlying().(*types.Pointer); ptrRecv && !ptrOperand {
					path(n.X, nil)
				}
			}
		}
		return true
	})
}

// isZero reports whether e is the constant 0.
func isZero(info *types.Info, e ast.Expr) bool {
	v := info.Types[e].Value
	return v != nil && v.Kind() == constant.Int && constant.Sign(v) == 0
}

// identOf is the identifier a call's function expression names, through
// parentheses, an explicit instantiation and a selector; nil for anything
// else.
func identOf(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.SelectorExpr:
			return x.Sel
		case *ast.Ident:
			return x
		default:
			return nil
		}
	}
}

// declares reports whether the package's non-test files declare anything
// besides imports (a doc.go-only package is not an orphan).
func declares(pkg *Package) bool {
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if gd, ok := d.(*ast.GenDecl); !ok || gd.Tok != token.IMPORT {
				return true
			}
		}
	}
	return false
}
