package lint_test

import (
	"go/ast"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"lifting/internal/lint"
)

// loadFixture loads one testdata package through the same pipeline a real
// run uses.
func loadFixture(t *testing.T, name string) *lint.Module {
	t.Helper()
	dir := filepath.Join("testdata", "src", filepath.FromSlash(name))
	m, err := lint.LoadPackage(dir, "fixture/"+name)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	return m
}

// wantRe extracts the expectation strings of a `// want "re1" "re2"`
// comment (block-comment form included, for expectations that target a
// //lint:allow directive's own line).
var wantRe = regexp.MustCompile(`\bwant((?: "(?:[^"\\]|\\.)*")+)`)

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// expectations collects every `// want "..."` comment of the fixture. The
// expectation applies to findings on the comment's own line; the quoted
// pattern is a regexp matched against "rule: message".
func expectations(t *testing.T, m *lint.Module) []*expectation {
	t.Helper()
	var exps []*expectation
	scan := func(f *ast.File) {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				match := wantRe.FindStringSubmatch(c.Text)
				if match == nil {
					continue
				}
				pos := m.Fset.Position(c.Pos())
				for _, q := range regexp.MustCompile(`"(?:[^"\\]|\\.)*"`).FindAllString(match[1], -1) {
					pat, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s: bad want pattern %s: %v", pos, q, err)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, pat, err)
					}
					exps = append(exps, &expectation{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	for _, pkg := range m.Pkgs {
		for _, f := range pkg.Files {
			scan(f)
		}
		for _, f := range pkg.TestFiles {
			scan(f)
		}
	}
	return exps
}

// checkFixture runs the analyzers over the fixture and diffs findings
// against the fixture's want comments: every finding must be wanted on its
// line, every want must be hit.
func checkFixture(t *testing.T, name string, analyzers []lint.Analyzer) {
	t.Helper()
	m := loadFixture(t, name)
	exps := expectations(t, m)
	for _, d := range lint.Run(m, analyzers) {
		matched := false
		for _, e := range exps {
			if e.file == d.Pos.Filename && e.line == d.Pos.Line && e.re.MatchString(d.Rule+": "+d.Message) {
				e.hit = true
				matched = true
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", d)
		}
	}
	for _, e := range exps {
		if !e.hit {
			t.Errorf("%s:%d: expected finding matching %q, got none", e.file, e.line, e.re)
		}
	}
}

func TestNoWallclockFixture(t *testing.T) {
	checkFixture(t, "nowallclock", []lint.Analyzer{
		lint.NoWallclock{Packages: lint.PackageSet{"fixture/nowallclock"}},
	})
}

// TestNoWallclockAllowlisted pins the allowlist mechanism: the same
// wall-clock-reading package produces findings when selected and none when
// left off the deterministic set — where the two patterns that select
// nothing loaded are findings themselves (a package list must not outlive
// the packages it names).
func TestNoWallclockAllowlisted(t *testing.T) {
	m := loadFixture(t, "nowallclock_allowlisted")
	if ds := lint.Run(m, []lint.Analyzer{
		lint.NoWallclock{Packages: lint.PackageSet{"fixture/nowallclock_allowlisted"}},
	}); len(ds) != 2 {
		t.Errorf("selected package: got %d findings, want 2: %v", len(ds), ds)
	}
	ds := lint.Run(m, []lint.Analyzer{
		lint.NoWallclock{Packages: lint.PackageSet{"fixture/somewhere/else", "fixture/live/..."}},
	})
	if len(ds) != 2 {
		t.Fatalf("allowlisted package: got %d findings, want the 2 stale patterns: %v", len(ds), ds)
	}
	for _, d := range ds {
		if d.Rule != "no-wallclock" || !strings.Contains(d.Message, "matches no loaded package") {
			t.Errorf("allowlisted package: unexpected finding %s", d)
		}
	}
}

// TestNoOrphanFixture pins every no-orphan finding — the package nothing
// imports, the function and the method only their own body or a test
// references, the field nothing writes — what escapes one (a method an
// interface reaches, a generic method reached through an instantiation, a
// field written only by calling a pointer method on it), and the in-place
// suppression that names the test a kept declaration serves.
func TestNoOrphanFixture(t *testing.T) {
	checkFixture(t, "noorphan", []lint.Analyzer{lint.NoOrphan{}})
}

func TestNoGlobalRandFixture(t *testing.T) {
	checkFixture(t, "noglobalrand", []lint.Analyzer{lint.NoGlobalRand{}})
}

func TestOrderedMapRangeFixture(t *testing.T) {
	checkFixture(t, "maprange", []lint.Analyzer{
		lint.OrderedMapRange{Packages: lint.PackageSet{"fixture/..."}},
	})
}

func TestNoFloatInDocumentFixture(t *testing.T) {
	checkFixture(t, "docfloat", []lint.Analyzer{
		lint.NoFloatInDocument{Roots: []lint.TypeRef{{Pkg: "fixture/docfloat", Name: "Document"}}},
	})
}

func TestNoTimeInResultsFixture(t *testing.T) {
	checkFixture(t, "doctime", []lint.Analyzer{
		lint.NoTimeInResults{
			Roots:    []lint.TypeRef{{Pkg: "fixture/doctime", Name: "Document"}},
			Packages: lint.PackageSet{"fixture/doctime"},
		},
	})
}

// TestSuppressionHygiene pins the allow-comment contract: malformed
// directives, unknown rules and stale suppressions are findings themselves.
func TestSuppressionHygiene(t *testing.T) {
	checkFixture(t, "suppress", []lint.Analyzer{
		lint.NoWallclock{Packages: lint.PackageSet{"fixture/suppress"}},
	})
}

// TestPackageSetMatch pins the pattern syntax the configs rely on.
func TestPackageSetMatch(t *testing.T) {
	s := lint.PackageSet{"lifting/internal/sim", "lifting/cmd/..."}
	for path, want := range map[string]bool{
		"lifting/internal/sim":     true,
		"lifting/internal/simnet":  false,
		"lifting/cmd":              true,
		"lifting/cmd/lifting-sim":  true,
		"lifting/cmd/a/b":          true,
		"lifting/internal/gossip":  false,
		"othermodule/internal/sim": false,
	} {
		if got := s.Match(path); got != want {
			t.Errorf("Match(%q) = %v, want %v", path, got, want)
		}
	}
}
