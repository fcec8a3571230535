package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Module is a fully loaded, type-checked module: every package under the
// root (testdata and hidden directories excluded), parsed with comments and
// checked against its real dependencies.
type Module struct {
	Fset *token.FileSet
	// Path is the module path from go.mod ("lifting").
	Path string
	// Dir is the module root directory.
	Dir string
	// Pkgs are the module's packages, sorted by import path.
	Pkgs []*Package
}

// LoadModule loads and type-checks every package of the module rooted at
// dir. Intra-module imports resolve against the loaded packages themselves
// (each package is type-checked exactly once); standard-library imports are
// type-checked from GOROOT source. Test files are parsed for the syntactic
// analyzers but excluded from type checking.
func LoadModule(dir string) (*Module, error) {
	modPath, err := modulePath(filepath.Join(dir, "go.mod"))
	if err != nil {
		return nil, err
	}
	l := newLoader(modPath, dir)
	pkgDirs, err := packageDirs(dir)
	if err != nil {
		return nil, err
	}
	for _, d := range pkgDirs {
		rel, err := filepath.Rel(dir, d)
		if err != nil {
			return nil, err
		}
		path := modPath
		if rel != "." {
			path = modPath + "/" + filepath.ToSlash(rel)
		}
		if err := l.parseDir(path, d); err != nil {
			return nil, err
		}
	}
	m := &Module{Fset: l.fset, Path: modPath, Dir: dir}
	for path := range l.pkgs {
		if err := l.check(path); err != nil {
			return nil, err
		}
	}
	for _, p := range l.pkgs {
		m.Pkgs = append(m.Pkgs, p)
	}
	sort.Slice(m.Pkgs, func(i, j int) bool { return m.Pkgs[i].Path < m.Pkgs[j].Path })
	return m, nil
}

// LoadPackage loads one package directory as a standalone module of one
// package (imports restricted to the standard library). The fixture tests
// load their testdata packages through this, so fixtures exercise the same
// parse/type-check pipeline as a real run.
//
//lint:allow no-orphan every fixture test (checkFixture in fixture_test.go) loads its testdata package through it
func LoadPackage(dir, path string) (*Module, error) {
	l := newLoader(path, dir)
	if err := l.parseDir(path, dir); err != nil {
		return nil, err
	}
	if err := l.check(path); err != nil {
		return nil, err
	}
	return &Module{Fset: l.fset, Path: path, Dir: dir, Pkgs: []*Package{l.pkgs[path]}}, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	b, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(b), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module line in %s", gomod)
}

// packageDirs walks the tree collecting directories that contain Go files,
// skipping hidden directories and testdata (fixture packages are loaded by
// their own tests, not as part of the module).
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(d.Name(), ".go") {
			dir := filepath.Dir(p)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	return dirs, err
}

// loader parses and type-checks packages, serving intra-module imports from
// its own results and delegating standard-library imports to a source
// importer over GOROOT.
type loader struct {
	fset     *token.FileSet
	modPath  string
	modDir   string
	std      types.Importer
	pkgs     map[string]*Package
	checking map[string]bool
}

func newLoader(modPath, modDir string) *loader {
	// The source importer type-checks the standard library from GOROOT
	// source through go/build. With cgo enabled it would shell out to a C
	// toolchain for packages like net; the pure-Go fallbacks type-check
	// identically for analysis purposes, so force them.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	return &loader{
		fset:     fset,
		modPath:  modPath,
		modDir:   modDir,
		std:      importer.ForCompiler(fset, "source", nil),
		pkgs:     make(map[string]*Package),
		checking: make(map[string]bool),
	}
}

// parseDir parses every Go file of one package directory, separating test
// files from the files that will be type-checked.
func (l *loader) parseDir(path, dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	pkg := &Package{Path: path, Dir: dir}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return err
		}
		if strings.HasSuffix(name, "_test.go") {
			pkg.TestFiles = append(pkg.TestFiles, f)
		} else {
			pkg.Files = append(pkg.Files, f)
		}
	}
	if len(pkg.Files) == 0 && len(pkg.TestFiles) == 0 {
		return nil
	}
	l.pkgs[path] = pkg
	return nil
}

// Import implements types.Importer over the loader's package set.
func (l *loader) Import(path string) (*types.Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		if err := l.check(path); err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

// check type-checks one loaded package (idempotent; detects import cycles).
func (l *loader) check(path string) error {
	pkg := l.pkgs[path]
	if pkg == nil {
		return fmt.Errorf("lint: unknown package %q", path)
	}
	if pkg.Types != nil {
		return nil
	}
	if len(pkg.Files) == 0 {
		// A directory with only test files has no package to check.
		pkg.Types = types.NewPackage(path, "_testonly")
		pkg.Info = &types.Info{}
		return nil
	}
	if l.checking[path] {
		return fmt.Errorf("lint: import cycle through %q", path)
	}
	l.checking[path] = true
	defer delete(l.checking, path)

	var firstErr error
	conf := types.Config{
		Importer: l,
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	tpkg, err := conf.Check(path, l.fset, pkg.Files, info)
	if firstErr != nil {
		return fmt.Errorf("lint: type-checking %s: %w", path, firstErr)
	}
	if err != nil {
		return fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	pkg.Types = tpkg
	pkg.Info = info
	return nil
}
