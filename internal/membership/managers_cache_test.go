package membership

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"lifting/internal/msg"
	"lifting/internal/rng"
)

// managersLocked is the assignment computed from scratch, as Managers
// computed it on every cache miss before its sets outlived membership
// changes: the oracle the cache is tested against. Callers hold d.mu.
func (d *Directory) managersLocked(target msg.NodeID, m int) []msg.NodeID {
	n := len(d.all)
	if n <= 1 {
		return nil
	}
	alive := len(d.alive)
	if _, selfAlive := d.aliveAt[target]; selfAlive {
		alive--
	}
	if m > alive {
		m = alive
	}
	if m <= 0 {
		return nil
	}
	out := make([]msg.NodeID, 0, m)
	for salt := uint32(0); len(out) < m; salt++ {
		b, _ := jump(managerHash(target, salt), n)
		id := d.all[b]
		if id == target || slices.Contains(out, id) {
			continue
		}
		if _, live := d.aliveAt[id]; live {
			out = append(out, id)
		}
	}
	return out
}

// managersFresh recomputes the assignment from scratch, bypassing the
// cache — the reference the cache is tested against.
func (d *Directory) managersFresh(target msg.NodeID, m int) []msg.NodeID {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.managersLocked(target, m)
}

// TestManagersCachedMatchesFreshUnderChurn is the cache-correctness property
// test: across a random Join/Expel sequence, the cached result must be
// bit-identical to a from-scratch computation at every epoch.
func TestManagersCachedMatchesFreshUnderChurn(t *testing.T) {
	d := Sequential(80)
	r := rng.New(99).Derive("churn")
	next := msg.NodeID(80)
	check := func() {
		for _, m := range []int{1, 5, 25} {
			for _, target := range d.All() {
				cached := d.Managers(target, m)
				fresh := d.managersFresh(target, m)
				if !reflect.DeepEqual(cached, fresh) {
					t.Fatalf("epoch %d: Managers(%d, %d) cached %v != fresh %v",
						d.Epoch(), target, m, cached, fresh)
				}
			}
		}
	}
	check()
	for step := 0; step < 60; step++ {
		switch r.IntN(3) {
		case 0: // brand-new join
			d.Join(next)
			next++
		case 1: // revival of a possibly-departed node
			all := d.All()
			d.Join(all[r.IntN(len(all))])
		default: // departure
			all := d.All()
			d.Expel(all[r.IntN(len(all))])
		}
		check()
	}
}

// TestManagersStableAcrossExpel pins the assignment-stability property churn
// relies on: expelling a node never reassigns the surviving managers of any
// target — the probe sequence runs over the unchanged registration set, so
// the new set is the old set minus the departed node (order preserved) plus
// replacements appended at the tail.
func TestManagersStableAcrossExpel(t *testing.T) {
	d := Sequential(200)
	const m = 25
	before := make(map[msg.NodeID][]msg.NodeID)
	for _, target := range d.All() {
		before[target] = d.Managers(target, m)
	}
	victim := d.Managers(7, m)[3] // a manager of target 7, so both cases occur
	d.Expel(victim)
	for _, target := range d.All() {
		after := d.Managers(target, m)
		kept := make([]msg.NodeID, 0, m)
		for _, id := range before[target] {
			if id != victim {
				kept = append(kept, id)
			}
		}
		if len(after) < len(kept) {
			t.Fatalf("target %d lost managers beyond the expelled one: %v -> %v", target, before[target], after)
		}
		if !reflect.DeepEqual(after[:len(kept)], kept) {
			t.Fatalf("target %d: surviving managers reshuffled: %v -> %v", target, kept, after[:len(kept)])
		}
		for _, id := range after {
			if id == victim {
				t.Fatalf("target %d still assigned the expelled manager %d", target, victim)
			}
		}
	}
}

// TestManagersCacheInvalidatedOnJoin ensures a stale cache entry never
// survives a membership change: a join grows the registration set, which can
// reshuffle assignments, and the post-join result must match a fresh
// computation (not the pre-join cached one).
func TestManagersCacheInvalidatedOnJoin(t *testing.T) {
	d := Sequential(50)
	stale := d.Managers(9, 10) // populate the cache
	d.Join(500)
	got := d.Managers(9, 10)
	want := d.managersFresh(9, 10)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-join Managers = %v, want fresh %v (stale: %v)", got, want, stale)
	}
}

// TestManagersHitAllocsZero is the hot-path guarantee the 10k-node scale
// workload rests on: a cache hit performs no allocation.
func TestManagersHitAllocsZero(t *testing.T) {
	d := Sequential(1000)
	d.Managers(42, 25) // warm
	avg := testing.AllocsPerRun(100, func() {
		d.Managers(42, 25)
	})
	if avg != 0 {
		t.Fatalf("cache hit allocates %.1f/op, want 0", avg)
	}
}

// TestManagersSurviveUnrelatedExpel: an Expel of a node outside a target's
// set cannot move it, so the cached set stands — the lookup after it
// allocates nothing and returns the very slice it returned before.
func TestManagersSurviveUnrelatedExpel(t *testing.T) {
	const n, m, runs = 1000, 25, 100
	d := Sequential(n)
	set := d.Managers(42, m)
	var victims []msg.NodeID
	for id := msg.NodeID(0); len(victims) < runs+1; id++ { // AllocsPerRun warms up once
		if id != 42 && !slices.Contains(set, id) {
			victims = append(victims, id)
		}
	}
	i := 0
	got := testing.AllocsPerRun(runs, func() {
		d.Expel(victims[i])
		i++
		d.Managers(42, m)
	})
	if got != 0 {
		t.Fatalf("Managers after an unrelated Expel allocates %v objects, want 0", got)
	}
	if now := d.Managers(42, m); &now[0] != &set[0] {
		t.Fatal("Managers after unrelated Expels returned a new slice")
	}
}

// TestManagersKeepSetsAChangeLeavesAlone: across random churn, a lookup
// whose answer a change did not move returns the very slice it returned
// before the change — the cache allocates only for answers that change.
func TestManagersKeepSetsAChangeLeavesAlone(t *testing.T) {
	d := Sequential(120)
	r := rng.New(17).Derive("keep")
	next := msg.NodeID(120)
	const m = 8
	before := map[msg.NodeID][]msg.NodeID{}
	for step := 0; step < 200; step++ {
		for _, target := range d.All() {
			before[target] = d.Managers(target, m)
		}
		switch all := d.All(); r.IntN(3) {
		case 0:
			d.Join(next)
			next++
		case 1:
			d.Join(all[r.IntN(len(all))])
		default:
			d.Expel(all[r.IntN(len(all))])
		}
		for target, old := range before {
			now := d.Managers(target, m)
			if slices.Equal(old, now) && len(now) > 0 && &old[0] != &now[0] {
				t.Fatalf("step %d: Managers(%d, %d) = %v again, in a new slice", step, target, m, now)
			}
		}
	}
}

// TestManagersConcurrentWithChurn drives lookups from several goroutines
// while the membership shifts — the shape the live and UDP backends produce.
// Run with -race to check the cache's locking.
func TestManagersConcurrentWithChurn(t *testing.T) {
	d := Sequential(100)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				out := d.Managers(msg.NodeID(i%100), 10)
				for _, id := range out {
					if id == msg.NodeID(i%100) {
						t.Error("target assigned as its own manager")
						return
					}
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			d.Expel(msg.NodeID(i % 100))
			d.Join(msg.NodeID(i % 100))
		}
	}()
	wg.Wait()
}

// BenchmarkManagers measures the steady-state manager lookup at 10k nodes —
// the per-blame/per-read/per-rebalance hot path. All lookups after the first
// warming pass are cache hits: 0 allocs/op.
func BenchmarkManagers(b *testing.B) {
	const n, m = 10000, 25
	d := Sequential(n)
	for i := 0; i < n; i++ {
		d.Managers(msg.NodeID(i), m)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Managers(msg.NodeID(i%n), m)
	}
}

// BenchmarkManagersUncached measures the from-scratch computation the cache
// amortizes (the pre-cache cost of every lookup).
func BenchmarkManagersUncached(b *testing.B) {
	const n, m = 10000, 25
	d := Sequential(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.managersFresh(msg.NodeID(i%n), m)
	}
}
