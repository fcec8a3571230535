package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
)

// NoOrphan flags code that nothing which ships can reach: a package no
// non-test file imports, and a package-level function no non-test file
// references.
//
// PR 19 deleted ≈ 1 900 non-test lines that had accreted this way — a TfT
// swarm imported only by a benchmark file, a peer-sampling layer no node
// used, leaf functions kept alive by their own unit tests. A test is not a
// caller: a function only its test reaches is dead code with a maintenance
// cost. Two findings:
//
//   - a non-main package that declares something and is imported by no
//     non-test file of the module (reported at its first package clause);
//   - a package-level function in a non-test file that no non-test file
//     references outside its own body (main and init are exempt).
//
// Methods are out of scope: whether one is reachable depends on the
// interfaces its receiver satisfies, which a reference count cannot decide.
// So are types, variables and constants: the rule counts references to
// functions only. A function kept on purpose because a test of something
// else sets up or observes through it says so in place:
//
//	//lint:allow no-orphan <the test that uses it>
type NoOrphan struct{}

func (NoOrphan) Name() string { return "no-orphan" }
func (NoOrphan) Doc() string {
	return "flag packages no non-test file imports and package-level functions no non-test file references (methods out of scope)"
}

func (NoOrphan) RunModule(pass *Pass) {
	imported := make(map[string]bool)
	decls := make(map[types.Object]*ast.FuncDecl)
	for _, pkg := range pass.Module {
		for _, f := range pkg.Files {
			for _, imp := range f.Imports {
				if path, err := strconv.Unquote(imp.Path.Value); err == nil {
					imported[path] = true
				}
			}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Recv != nil || fd.Name.Name == "_" || fd.Name.Name == "init" ||
					(fd.Name.Name == "main" && f.Name.Name == "main") {
					continue
				}
				if obj := pkg.Info.Defs[fd.Name]; obj != nil {
					decls[obj] = fd
				}
			}
		}
	}
	for _, pkg := range pass.Module {
		for id, obj := range pkg.Info.Uses {
			if fd := decls[obj]; fd != nil && (id.Pos() < fd.Pos() || id.Pos() >= fd.End()) {
				delete(decls, obj)
			}
		}
	}
	for obj, fd := range decls {
		pass.Report(fd.Pos(), "func %s.%s is referenced by no non-test file; delete it with its test, or name the test that needs it in a //lint:allow", obj.Pkg().Name(), obj.Name())
	}

	for _, pkg := range pass.Module {
		if len(pkg.Files) == 0 || pkg.Types.Name() == "main" || imported[pkg.Path] || !declares(pkg) {
			continue
		}
		pass.Report(pkg.Files[0].Package, "package %s is imported by no non-test file of the module; wire it to a command or delete it", pkg.Path)
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
