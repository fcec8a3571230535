// Package knobs is a golden fixture for the one-value rule. Its declarations
// are in the rule's scope; cmd/tool's are not, but the writes and calls there
// count like any other.
package knobs

const limit = 4

// Limit is set to one value, spelled two ways.
type Limit struct {
	N int // want "one-value: field knobs.Limit.N is set to limit \\(4\\) by every non-test write"
}

var _ = Limit{N: limit}

func setLimit(l *Limit) { l.N = 4 }

var _ = setLimit

// Hook is only ever nil.
type Hook struct {
	Fn func() // want "one-value: field knobs.Hook.Fn is set to nil by every non-test write"
}

var _ = Hook{Fn: nil}

// Rate is set to 0.5 by one literal and to 0 by another that omits it.
type Rate struct{ R, Other float64 }

var _ = Rate{R: 0.5}
var _ = Rate{Other: 1}

// Depth has one write that is no constant.
type Depth struct{ D int }

var _ = Depth{D: 2}

func (d *Depth) grow(n int) { d.D = n * 2 }

var _ = (*Depth).grow

// Size is set to 3, and zeroed by a var of its type.
type Size struct{ S int }

var _ = Size{S: 3}
var zeroed Size

// Cap is zeroed by new, while Space is only appended to an empty slice,
// which holds no Space: a finding.
type Cap struct{ C int }

var _ = new(Cap)
var _ = Cap{C: 8}

type Space struct {
	C int // want "one-value: field knobs.Space.C is set to 8 by every non-test write"
}

var _ = append(make([]Space, 0, 4), Space{C: 8})

// Mode is set to "fast" here and to "slow" from cmd/tool.
type Mode struct{ M string }

var _ = Mode{M: "fast"}

// Retries is set to 5 here; the test file's 9 does not count.
type Retries struct {
	R int // want "one-value: field knobs.Retries.R is set to 5 by every non-test write"
}

var _ = Retries{R: 5}

// Kept is one-valued on purpose and says who needs it.
type Kept struct {
	//lint:allow one-value TestKept sets it to 9
	K int
}

var _ = Kept{K: 1}

// retry's times is always 3; name varies.
func retry(times int, name string) int { // want "one-value: parameter times of func knobs.retry is passed 3 by every non-test call"
	return times + len(name)
}

var _ = retry(3, "a") + retry(3, "b")

// scale is called with 3, and also passed as a value: its callers are
// unseen.
func scale(x int) int { return x * 2 }

var _ = scale(3)
var _ = []func(int) int{scale}

// box.size is named by sizer: a call through the interface is unseen.
type sizer interface{ size(unit int) int }

type box struct{}

func (box) size(unit int) int { return unit }

var _ sizer = box{}
var _ = box{}.size(8)

// pair's b is 2 where it is spelled out, but one call passes a tuple.
func two() (int, int) { return 1, 2 }

func pair(a, b int) int { return a + b }

var _ = pair(1, 2)
var _ = pair(two())

// sum is variadic.
func sum(xs ...int) int { return len(xs) }

var _ = sum(1)

// Open is exported and called from cmd/tool: its parameter is API.
func Open(level int) int { return level }

// Close is exported but called only here.
func Close(level int) int { return level } // want "one-value: parameter level of func knobs.Close is passed 1 by every non-test call"

var _ = Close(1)
