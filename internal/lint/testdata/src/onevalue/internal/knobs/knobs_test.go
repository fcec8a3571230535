package knobs

import "testing"

// Writes in a test file do not count: Retries.R stays one-valued.
func TestKept(t *testing.T) {
	if (Retries{R: 9}).R+(Kept{K: 9}).K != 18 {
		t.Fatal("unreachable")
	}
}
