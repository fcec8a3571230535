package noorphan

import "testing"

func TestSubject(t *testing.T) {
	if testOnly() == oracle() {
		t.Fatal("unreachable")
	}
}
