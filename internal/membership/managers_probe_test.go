package membership

import (
	"reflect"
	"testing"

	"lifting/internal/msg"
	"lifting/internal/rng"
)

// managersByMap is managersLocked as it stood before the linear scan: a set
// of every id the probe has seen, seeded with the target, over the same jump
// buckets. Kept as the reference the scan is diffed against.
func (d *Directory) managersByMap(target msg.NodeID, m int) []msg.NodeID {
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
	used := map[msg.NodeID]struct{}{target: {}}
	for salt := uint32(0); len(out) < m; salt++ {
		b, _ := jump(managerHash(target, salt), n)
		id := d.all[b]
		if _, dup := used[id]; dup {
			continue
		}
		if _, live := d.aliveAt[id]; !live {
			used[id] = struct{}{}
			continue
		}
		used[id] = struct{}{}
		out = append(out, id)
	}
	return out
}

// TestManagersProbeMatchesMapVersion diffs the probe against managersByMap
// on seeded random directories: scattered ids, a share of them departed or
// expelled (both are Expel here), some revived, some registered late. Every
// registered id and one never registered is a target, for every m from 1 to
// 25 and for m past the number of live nodes.
func TestManagersProbeMatchesMapVersion(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		r := rng.New(seed).Derive("probe")
		n := 1 + r.IntN(60)
		ids := make([]msg.NodeID, n)
		for i := range ids {
			ids[i] = msg.NodeID(7*i + r.IntN(7)) // distinct: one per stride of 7
		}
		d := NewDirectory(ids)
		for k := r.IntN(n + 1); k > 0; k-- {
			d.Expel(ids[r.IntN(n)])
		}
		for k := r.IntN(4); k > 0; k-- {
			d.Join(ids[r.IntN(n)])
		}
		for k := r.IntN(4); k > 0; k-- {
			d.Join(msg.NodeID(1000 + r.IntN(50)))
		}
		targets := append(d.All(), 5000)
		ms := make([]int, 0, 26)
		for m := 1; m <= 25; m++ {
			ms = append(ms, m)
		}
		ms = append(ms, d.NAlive()+1+r.IntN(5))
		d.mu.Lock()
		for _, target := range targets {
			for _, m := range ms {
				got, want := d.managersLocked(target, m), d.managersByMap(target, m)
				if !reflect.DeepEqual(got, want) {
					d.mu.Unlock()
					t.Fatalf("seed %d: %d of %d registered alive, managers(%d, %d) = %v, map version %v",
						seed, len(d.alive), len(d.all), target, m, got, want)
				}
			}
		}
		d.mu.Unlock()
	}
}

// TestManagersMissAllocatesOnlyResult: recomputing an assignment — what every
// lookup after a membership change does once per target — allocates its
// result and nothing else, departed nodes on the probe path included.
func TestManagersMissAllocatesOnlyResult(t *testing.T) {
	d := Sequential(1000)
	for i := 0; i < 1000; i += 7 {
		d.Expel(msg.NodeID(i))
	}
	if got := testing.AllocsPerRun(100, func() { d.managersFresh(42, 25) }); got != 1 {
		t.Fatalf("a cache miss allocates %v objects, want 1 (the result)", got)
	}
}
