// Package noorphan is a golden fixture for the no-orphan rule. Loaded on its
// own it is also a package that nothing imports, so its package clause
// carries the first finding.
package noorphan // want "no-orphan: package fixture/noorphan is imported by no non-test file"

// used is referenced by a package-level initializer: a non-test reference.
func used() int { return 1 }

var _ = used()

// recursive is referenced only from its own body: still an orphan.
func recursive(n int) int { // want "no-orphan: func noorphan.recursive is referenced by no non-test file"
	if n == 0 {
		return 0
	}
	return recursive(n - 1)
}

// testOnly is called from a_test.go and nowhere else; a test is not a caller.
func testOnly() int { return 2 } // want "no-orphan: func noorphan.testOnly is referenced by no non-test file"

// oracle is kept on purpose and says which test needs it.
//
//lint:allow no-orphan TestSubject compares the subject against it
func oracle() int { return 3 }

// T's methods are out of scope: whether one is reachable depends on the
// interfaces T satisfies.
type T struct{}

func (T) unused() {}

// init is exempt, as main would be in a main package.
func init() {}
