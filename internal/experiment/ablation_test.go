package experiment

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"lifting/internal/rng"
)

// quickAblate runs the -quick ablate experiment once for the tests that
// read its result.
var quickAblate = struct {
	sync.Once
	res *Result
	err error
}{}

func ablateResult(t *testing.T) *Result {
	t.Helper()
	quickAblate.Do(func() {
		e, ok := Lookup("ablate")
		if !ok {
			quickAblate.err = fmt.Errorf("experiment ablate not registered")
			return
		}
		quickAblate.res, quickAblate.err = e.Run(context.Background(), quick(), nil)
	})
	if quickAblate.err != nil {
		t.Fatal(quickAblate.err)
	}
	return quickAblate.res
}

// TestAblationsTable: what each mechanism buys is the verdict, one row each.
func TestAblationsTable(t *testing.T) {
	res := ablateResult(t)
	if !res.Verdict.Pass {
		t.Fatalf("ablate verdict failed:\n  %s", strings.Join(res.Verdict.Failures, "\n  "))
	}
	if n := len(res.Tables[0].Rows); n != 3 {
		t.Fatalf("rows = %d, want 3", n)
	}
}

// TestAblationsRender: the rendered table names all three mechanisms.
func TestAblationsRender(t *testing.T) {
	var sb strings.Builder
	ablateResult(t).Tables[0].Render(&sb)
	out := sb.String()
	for _, want := range []string{"compensation", "cross-checking", "loss recovery"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestSamplePeriodPdccZeroDropsWitnessBlame(t *testing.T) {
	// With pdcc = 0, expected blame = DV + chain terms only.
	bp := BlameProcess{P: paperParams, Rand: rng.New(7)}
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		sum += bp.SamplePeriod(0)
	}
	mean := sum / n
	want := paperParams.DirectVerificationBlame() + paperParams.CrossCheckBlameChain()
	if diff := mean - want; diff > 0.6 || diff < -0.6 {
		t.Fatalf("pdcc=0 mean blame %v, want %v", mean, want)
	}
}
