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

// T is used, and so is its field; only its unused method is an orphan.
type T struct{ n int }

func (T) unused() {} // want "no-orphan: method noorphan.\\(T\\).unused is referenced by no non-test file"

// name satisfies namer, an interface the package calls through, so nothing
// need name it to reach it.
func (T) name() string { return "t" }

type namer interface{ name() string }

var _ = namer(T{n: 1}).name()

// Box's method is reached only through an instantiation, Box[int]; it counts
// for the generic declaration, and so does the keyed write of its field.
type Box[V any] struct{ v V }

func (b Box[V]) get() V { return b.v }

var _ = Box[int]{v: 1}.get()

// Config.Limit is read but written nowhere: every reader sees 0.
type Config struct {
	Limit int // want "no-orphan: field noorphan.Config.Limit is written by no non-test file"
	//lint:allow no-orphan TestSubject sets it
	Knob int
}

var _ = Config{}.Limit + Config{}.Knob

// counter.n is written by its pointer method, and holder.c only through
// calling that method on it: the call takes c's address.
type counter struct{ n int }

func (c *counter) inc() int { c.n++; return c.n }

type holder struct{ c counter }

var h holder

var _ = h.c.inc()

// init is exempt, as main would be in a main package.
func init() {}
