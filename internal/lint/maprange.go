package lint

import (
	"go/ast"
	"go/types"
)

// OrderedMapRange flags `for range` over maps in packages whose output can
// reach an emitted artifact — snapshots, tables, the JSON document — or
// whose iteration order can reorder randomness draws.
//
// This is the PR 4 bug class: history.Log snapshots iterated maps in hash
// order, which made forgery rewrites and audit-poll sampling consume rng in
// a wandering order, and seeded runs diverged. Sorting *after* collecting is
// fine; the sorted-keys idiom ranges over a slice and is never flagged. A
// loop whose order provably cannot matter (a commutative reduction, a
// collect-then-sort) is annotated in place:
//
//	//lint:allow ordered-map-range <why order cannot be observed>
type OrderedMapRange struct {
	// Packages are the packages the rule applies to.
	Packages PackageSet
}

func (OrderedMapRange) Name() string           { return "ordered-map-range" }
func (a OrderedMapRange) packages() PackageSet { return a.Packages }
func (OrderedMapRange) Doc() string {
	return "flag map iteration in snapshot/table/JSON-emitting packages unless sorted or annotated order-insensitive"
}

func (a OrderedMapRange) Run(pass *Pass) {
	if pass.Pkg.Info == nil || !a.Packages.Match(pass.Pkg.Path) {
		return
	}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pass.Pkg.Info.TypeOf(rs.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			pass.Report(rs.For, "range over %s iterates in nondeterministic order; iterate sorted keys, or annotate the loop order-insensitive with //lint:allow",
				types.TypeString(t, types.RelativeTo(pass.Pkg.Types)))
			return true
		})
	}
}
