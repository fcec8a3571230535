package membership

import (
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"lifting/internal/msg"
)

// moves counts, over a replayed script, the cached sets a membership change
// really moved (by the oracle), by what moved them.
type moves struct {
	expel, revival, freshJoin, cap int
}

// replayManagers runs data as a churn script against a directory and checks
// every set it has asked for against the from-scratch oracle after every
// step: the sets a change leaves alone must still be right, and the ones it
// moves must be recomputed. data[0] sizes the directory (1..48 nodes, ids
// 0..n-1); then each 3-byte op (kind, a, b) is, by kind mod 4,
//
//	0 a fresh join of the next unused id;
//	1 Join(all[a mod len(all)]): a revival, or nothing if it is live;
//	2 Expel(all[a mod len(all)]);
//	3 Managers(target, 1 + b mod 32), target all[a mod (len(all)+1)], where
//	  the one past the end is an id never registered.
//
// At most 128 ops run. The counts classify each set a change moved: a set
// whose size changed moved with the cap, else by the change's kind.
func replayManagers(t *testing.T, data []byte) moves {
	var mv moves
	if len(data) == 0 {
		return mv
	}
	n := 1 + int(data[0])%48
	d := Sequential(n)
	next := msg.NodeID(n)
	var keys []mgrKey
	want := map[mgrKey][]msg.NodeID{}
	check := func(step int) {
		for _, k := range keys {
			if got := d.Managers(k.target, k.m); !reflect.DeepEqual(got, want[k]) {
				t.Fatalf("step %d: Managers(%d, %d) = %v, from scratch %v", step, k.target, k.m, got, want[k])
			}
		}
	}
	ops := data[1:]
	for step := 0; step < 128 && len(ops) >= 3; step, ops = step+1, ops[3:] {
		kind, a, b := ops[0]%4, int(ops[1]), int(ops[2])
		all := d.All()
		var changed bool
		var counter *int
		switch kind {
		case 0:
			changed, counter = d.Join(next), &mv.freshJoin
			next++
		case 1:
			changed, counter = d.Join(all[a%len(all)]), &mv.revival
		case 2:
			changed, counter = d.Expel(all[a%len(all)]), &mv.expel
		default:
			target := msg.NodeID(1 << 20)
			if i := a % (len(all) + 1); i < len(all) {
				target = all[i]
			}
			k := mgrKey{target: target, m: 1 + b%32}
			if _, seen := want[k]; !seen {
				keys = append(keys, k)
				want[k] = d.managersFresh(k.target, k.m)
			}
		}
		if changed {
			for _, k := range keys {
				old, now := want[k], d.managersFresh(k.target, k.m)
				switch {
				case len(old) != len(now):
					mv.cap++
				case !reflect.DeepEqual(old, now):
					*counter++
				}
				want[k] = now
			}
		}
		check(step)
	}
	return mv
}

// FuzzManagers replays random churn scripts (replayManagers) and demands
// that every cached manager set equal the from-scratch oracle after every
// step. The committed corpus covers a revival that moves a set, a cap
// change and a fresh join that moves a probe (TestManagersCorpusCovers).
func FuzzManagers(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) { replayManagers(t, data) })
}

// TestManagersCorpusCovers: the committed FuzzManagers corpus moves a set by
// each kind of change — an Expel, a revival, a fresh join and the size cap —
// so the corpus alone, replayed by every plain `go test`, checks each of the
// cache's invalidation rules against a change that really needs it.
func TestManagersCorpusCovers(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzManagers")
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var sum moves
	for _, file := range files {
		raw, err := os.ReadFile(filepath.Join(dir, file.Name()))
		if err != nil {
			t.Fatal(err)
		}
		body, ok := strings.CutPrefix(string(raw), "go test fuzz v1\n[]byte(")
		body, ok2 := strings.CutSuffix(strings.TrimSpace(body), ")")
		data, err := strconv.Unquote(body)
		if !ok || !ok2 || err != nil {
			t.Fatalf("%s: not one []byte corpus entry", file.Name())
		}
		mv := replayManagers(t, []byte(data))
		t.Logf("%s: %+v", file.Name(), mv)
		sum.expel += mv.expel
		sum.revival += mv.revival
		sum.freshJoin += mv.freshJoin
		sum.cap += mv.cap
	}
	if sum.expel == 0 || sum.revival == 0 || sum.freshJoin == 0 || sum.cap == 0 {
		t.Fatalf("the corpus moves sets by %+v: every kind of change must move one", sum)
	}
}
