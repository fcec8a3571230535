package lint

import (
	"fmt"
	"slices"
)

// ModuleAnalyzer is implemented by analyzers that reason across package
// boundaries (the document-closure rules: a root type in one package can
// reach fields declared in another). RunModule is invoked exactly once, with
// a pass whose Pkg is nil and whose Module holds every loaded package.
type ModuleAnalyzer interface {
	Analyzer
	RunModule(pass *Pass)
}

// packageScoped is implemented by analyzers configured with a PackageSet, so
// the runner can check the configuration against the loaded module.
type packageScoped interface {
	Analyzer
	packages() PackageSet
}

// stalePatterns reports every pattern of the analyzer's PackageSet that
// selects no loaded package: a hand-kept list otherwise keeps naming a
// deleted package forever, the way an unused //lint:allow would.
func stalePatterns(m *Module, a packageScoped) []Diagnostic {
	var ds []Diagnostic
	for _, pat := range a.packages() {
		sel := PackageSet{pat}
		if !slices.ContainsFunc(m.Pkgs, func(p *Package) bool { return sel.Match(p.Path) }) {
			ds = append(ds, Diagnostic{
				Rule:    a.Name(),
				Message: fmt.Sprintf("package pattern %q matches no loaded package; drop it from the rule's configuration", pat),
			})
		}
	}
	return ds
}

// Run executes the analyzers over the module and returns the surviving
// findings, sorted: raw findings minus //lint:allow-suppressed ones, plus
// hygiene findings about the suppressions and the package patterns
// themselves. An empty result is a clean tree.
func Run(m *Module, analyzers []Analyzer) []Diagnostic {
	ix := &allowIndex{}
	known := map[string]bool{"lint-allow": true}
	for _, a := range analyzers {
		known[a.Name()] = true
	}
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			ix.scanAllows(m.Fset, f)
		}
		for _, f := range pkg.TestFiles {
			ix.scanAllows(m.Fset, f)
		}
	}

	var raw []Diagnostic
	collect := func(d Diagnostic) { raw = append(raw, d) }
	for _, a := range analyzers {
		switch a := a.(type) {
		case ModuleAnalyzer:
			a.RunModule(&Pass{Fset: m.Fset, Module: m.Pkgs, rule: a.Name(), collect: collect})
		case PackageAnalyzer:
			for _, pkg := range m.Pkgs {
				a.Run(&Pass{Fset: m.Fset, Pkg: pkg, Module: m.Pkgs, rule: a.Name(), collect: collect})
			}
		}
	}

	var out []Diagnostic
	for _, d := range raw {
		if !ix.suppressed(d.Pos, d.Rule) {
			out = append(out, d)
		}
	}
	out = append(out, ix.hygiene(known)...)
	for _, a := range analyzers {
		if a, ok := a.(packageScoped); ok {
			out = append(out, stalePatterns(m, a)...)
		}
	}
	sortDiagnostics(out)
	return out
}
