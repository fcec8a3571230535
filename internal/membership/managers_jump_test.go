package membership

import (
	"slices"
	"testing"

	"lifting/internal/msg"
	"lifting/internal/rng"
)

// TestJumpInRange: every bucket lies in [0, n), one bucket included, on
// seeded keys and on the keys the probe itself draws.
func TestJumpInRange(t *testing.T) {
	r := rng.New(3).Derive("jump-range")
	for _, n := range []int{1, 2, 3, 10, 1000, 1 << 20, 1 << 30} {
		for i := 0; i < 2000; i++ {
			for _, key := range []uint64{r.Uint64(), managerHash(msg.NodeID(i), uint32(n))} {
				if b, _ := jump(key, n); b < 0 || b >= n {
					t.Fatalf("jump(%#x, %d) = %d, outside [0, %d)", key, n, b, n)
				}
			}
		}
	}
}

// TestJumpMovesOnlyToNewBucket is the consistency property a join rests on:
// growing the bucket count from n to n+1 leaves a key where it was or moves
// it to the new bucket n, never between old buckets. The walk's next
// candidate, which the manager cache keeps as its reach, says which: the key
// moves exactly when n+1 passes it, and stays with the same next otherwise.
func TestJumpMovesOnlyToNewBucket(t *testing.T) {
	r := rng.New(5).Derive("jump-grow")
	keys := make([]uint64, 200)
	for i := range keys {
		keys[i] = r.Uint64()
	}
	for _, key := range keys {
		prev, reach := jump(key, 1)
		for n := 1; n <= 5000; n++ {
			next, nextReach := jump(key, n+1)
			if next != prev && next != n {
				t.Fatalf("jump(%#x, %d) = %d but jump(%#x, %d) = %d: moved between old buckets",
					key, n, prev, key, n+1, next)
			}
			if moved := next != prev; moved != (int64(n+1) > reach) || !moved && nextReach != reach {
				t.Fatalf("jump(%#x, %d) = %d with next %d, but jump(%#x, %d) = %d with next %d",
					key, n, prev, reach, key, n+1, next, nextReach)
			}
			prev, reach = next, nextReach
		}
	}
}

// TestJumpUniform: over the keys the probe draws — managerHash of n targets
// × 1000 salts — every bucket's count stays within 15 % of the mean of 1000
// (about 4.7 standard deviations of a binomial count).
func TestJumpUniform(t *testing.T) {
	const perBucket, tol = 1000, 0.15
	for _, n := range []int{7, 100, 1000} {
		counts := make([]int, n)
		for target := 0; target < n; target++ {
			for salt := uint32(0); salt < perBucket; salt++ {
				b, _ := jump(managerHash(msg.NodeID(target), salt), n)
				counts[b]++
			}
		}
		for b, c := range counts {
			if c < perBucket*(1-tol) || c > perBucket*(1+tol) {
				t.Fatalf("n = %d: bucket %d holds %d keys, want %d ± %.0f%%", n, b, c, perBucket, 100*tol)
			}
		}
	}
}

// TestManagersJoinChangesOnlyJoinersSets is the churn property of the
// assignment: a join — a fresh id or the revival of a departed one — changes
// another target's manager set only if the new set contains the joiner. A
// probe moves only onto the joiner, so a join moves about M manager slots in
// all, not the whole N·M assignment. (The joiner's own probes that land on
// itself are skipped, so a fresh joiner's own set may differ from the one
// computed before it registered; it had no managers to hand off from.)
func TestManagersJoinChangesOnlyJoinersSets(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		r := rng.New(seed).Derive("join")
		n := 2 + r.IntN(300)
		ids := make([]msg.NodeID, n)
		for i := range ids {
			ids[i] = msg.NodeID(7*i + r.IntN(7))
		}
		d := NewDirectory(ids)
		for k := r.IntN(n / 2); k > 0; k-- {
			d.Expel(ids[r.IntN(n)])
		}
		m := 1 + r.IntN(25)
		fresh := msg.NodeID(7*n + 100)
		revived := ids[r.IntN(n)]
		d.Expel(revived)
		for _, joiner := range []msg.NodeID{fresh, revived} {
			targets := slices.DeleteFunc(d.All(), func(id msg.NodeID) bool { return id == joiner })
			before := make(map[msg.NodeID][]msg.NodeID, len(targets))
			for _, target := range targets {
				before[target] = d.Managers(target, m)
			}
			if !d.Join(joiner) {
				t.Fatalf("seed %d: Join(%d) changed nothing", seed, joiner)
			}
			for _, target := range targets {
				old, now := before[target], d.Managers(target, m)
				if slices.Equal(old, now) {
					continue
				}
				if !slices.Contains(now, joiner) {
					t.Fatalf("seed %d: Join(%d) moved managers(%d, %d) %v -> %v without the joiner",
						seed, joiner, target, m, old, now)
				}
			}
		}
	}
}
