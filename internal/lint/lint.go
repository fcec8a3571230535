// Package lint is a stdlib-only static-analysis framework that mechanically
// enforces the repository's byte-identical contract: seeded runs must emit
// the same lifting.experiments/v2 document across shard counts, worker
// counts and OS processes. The contract has been broken three times by the
// same bug classes — unsorted map-order snapshots (fixed by hand in PR 4),
// wall-clock fields leaking into result tables (PR 5), float and rng-order
// hazards in the snapshot path (PR 6–7) — and conventions that live only in
// reviewers' heads do not survive growth. Each analyzer in this package
// turns one of those conventions into a build-time check; cmd/lifting-lint
// runs the suite over the module and exits nonzero on any finding. NoOrphan
// and OneValue ride the same loader for a different convention: every
// package, function and method is reachable from something that ships, every
// struct field is set by something that ships, and no field or parameter is
// one that everything which ships sets to the same constant.
//
// The framework is built on go/ast, go/parser, go/types and go/token only —
// no dependency on golang.org/x/tools — so go.mod stays dependency-free.
//
// Findings are suppressed in place with an annotation comment:
//
//	//lint:allow <rule> <reason>
//
// placed on the flagged line or the line directly above it. The reason is
// mandatory: an allow without one is itself a finding, as is an allow that
// matches nothing (stale suppressions rot) or names an unknown rule.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding: a rule violation at a position.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Rule, d.Message)
}

// Package is one loaded, type-checked package of the module under analysis.
type Package struct {
	// Path is the import path ("lifting/internal/sim").
	Path string
	// Dir is the directory the sources were read from.
	Dir string
	// Files are the parsed non-test sources, with comments.
	Files []*ast.File
	// TestFiles are the parsed *_test.go sources (both in-package and
	// external test packages), with comments. They are parsed but not
	// type-checked: only syntactic analyzers see them.
	TestFiles []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// Info carries the type-checker's expression/object maps for Files.
	Info *types.Info
}

// Pass is one analyzer's view of one package. Report collects findings;
// suppression and sorting happen centrally in the runner.
type Pass struct {
	Fset *token.FileSet
	Pkg  *Package
	// Module lists every package of the module, for analyzers that reason
	// across package boundaries (document-closure rules).
	Module []*Package

	rule    string
	collect func(Diagnostic)
}

// Report records a finding at pos for the pass's rule.
func (p *Pass) Report(pos token.Pos, format string, args ...any) {
	p.collect(Diagnostic{
		Pos:     p.Fset.Position(pos),
		Rule:    p.rule,
		Message: fmt.Sprintf(format, args...),
	})
}

// Analyzer is one lint rule. Concrete analyzers additionally implement
// PackageAnalyzer (invoked once per package) or ModuleAnalyzer (invoked once
// for the whole module — the document-closure rules cross package
// boundaries).
type Analyzer interface {
	// Name is the rule identifier used in diagnostics and allow comments.
	Name() string
	// Doc is a one-line description for `lifting-lint -rules`.
	Doc() string
}

// PackageAnalyzer is an Analyzer run once per loaded package.
type PackageAnalyzer interface {
	Analyzer
	Run(pass *Pass)
}

// PackageSet selects packages by import-path pattern. A pattern is either an
// exact import path ("lifting/internal/sim") or a prefix wildcard
// ("lifting/cmd/..." — matching the prefix itself and everything below it),
// mirroring the go tool's pattern syntax.
type PackageSet []string

// Match reports whether the import path is selected by the set.
func (s PackageSet) Match(path string) bool {
	for _, pat := range s {
		if pat == path {
			return true
		}
		if prefix, ok := strings.CutSuffix(pat, "/..."); ok {
			if path == prefix || strings.HasPrefix(path, prefix+"/") {
				return true
			}
		}
	}
	return false
}

// sortDiagnostics orders findings by file, line, column, rule, message.
func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
}
