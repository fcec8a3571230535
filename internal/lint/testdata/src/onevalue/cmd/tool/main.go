// Command tool is outside the rule's scope: its writes and calls count, its
// own declarations are never reported.
package main

import "onevalue/internal/knobs"

// local is one-valued, but declared out of scope.
type local struct{ n int }

func main() {
	_ = knobs.Mode{M: "slow"}
	_ = knobs.Open(1)
	_ = local{n: 1}
}
