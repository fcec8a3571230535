package lint

import (
	"go/token"
	"go/types"
)

// NoTimeInResults forbids time.Time and time.Duration fields on result
// types: everything reachable from the document roots, plus — by name — the
// result-shaped structs (resultSuffixes) of the configured packages even
// when a field is currently excluded from marshalling.
//
// This is the PR 5 bug class: wall-clock timings measured during a run sat
// on result structs and leaked into tables and JSON, so two identical
// seeded runs produced different documents. A duration that is genuinely an
// input (a configured sim-time offset echoed back) is annotated; a measured
// one is deleted or moved out to the driver.
type NoTimeInResults struct {
	// Roots are the document root types (shared with NoFloatInDocument).
	Roots []TypeRef
	// Packages are additionally scanned for result-shaped struct names.
	Packages PackageSet
}

func (NoTimeInResults) Name() string           { return "no-time-in-results" }
func (a NoTimeInResults) packages() PackageSet { return a.Packages }
func (NoTimeInResults) Doc() string {
	return "forbid time.Time/time.Duration fields on result, row and snapshot structs; sim-time integers only"
}

// resultSuffixes are the struct-name suffixes treated as result-shaped.
var resultSuffixes = []string{"Result", "Run", "Row", "Snapshot", "Table"}

func (a NoTimeInResults) RunModule(pass *Pass) {
	reported := make(map[token.Pos]bool)
	isTime := func(t types.Type) bool {
		named, ok := types.Unalias(t).(*types.Named)
		if !ok {
			return false
		}
		obj := named.Obj()
		return obj.Pkg() != nil && obj.Pkg().Path() == "time" && (obj.Name() == "Time" || obj.Name() == "Duration")
	}
	check := func(owner *types.Named, field *types.Var) {
		if !typeHas(field.Type(), isTime) || reported[field.Pos()] {
			return
		}
		reported[field.Pos()] = true
		pass.Report(field.Pos(), "wall-clock-typed field %s.%s on a result struct; measured time must not reach the experiments document — delete it, move the measurement to a driver, or annotate why it is an input rather than a measurement",
			owner.Obj().Name(), field.Name())
	}

	walkDocument(pass, a.Roots, func(owner *types.Named, field *types.Var, tag string) {
		check(owner, field)
	})

	// Name-pattern scan: result-shaped structs are checked on every field,
	// marshalled or not — an unmarshalled wall-clock field on a Result is a
	// leak waiting for a json tag.
	for _, pkg := range pass.Module {
		if pkg.Types == nil || !a.Packages.Match(pkg.Path) {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !hasSuffixAny(name, resultSuffixes) {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			st, ok := named.Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				check(named, st.Field(i))
			}
		}
	}
}
