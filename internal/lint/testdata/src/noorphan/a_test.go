package noorphan

import "testing"

func TestSubject(t *testing.T) {
	if testOnly() == oracle() || (Config{Knob: 1}).Knob != 1 {
		t.Fatal("unreachable")
	}
}
