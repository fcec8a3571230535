package gossip

import (
	"fmt"
	"reflect"
	"testing"

	"lifting/internal/msg"
	"lifting/internal/rng"
)

// mapWantTable is the want table as it was before its index became a ring
// over the dense ids: the same slab, free list and age list, found through a
// map[msg.ChunkID]int32. It is the reference the ring index is checked
// against, operation by operation.
type mapWantTable struct {
	index          map[msg.ChunkID]int32
	slab           []want
	free           int32
	oldest, newest int32
	limit          int
}

func newMapWantTable(limit int) mapWantTable {
	return mapWantTable{index: make(map[msg.ChunkID]int32), free: -1, oldest: -1, newest: -1, limit: limit}
}

func (t *mapWantTable) get(c msg.ChunkID) *want {
	if i, ok := t.index[c]; ok {
		return &t.slab[i]
	}
	return nil
}

func (t *mapWantTable) obtain(c msg.ChunkID, now msg.Period) *want {
	if w := t.get(c); w != nil {
		return w
	}
	if len(t.index) >= t.limit {
		t.release(&t.slab[t.oldest])
	}
	i := t.free
	if i >= 0 {
		t.free = t.slab[i].next
	} else {
		i = int32(len(t.slab))
		t.slab = append(t.slab, want{})
	}
	w := &t.slab[i]
	*w = want{chunk: c, born: now, slot: i, prev: t.newest, next: -1}
	if t.newest >= 0 {
		t.slab[t.newest].next = i
	} else {
		t.oldest = i
	}
	t.newest = i
	t.index[c] = i
	return w
}

func (t *mapWantTable) release(w *want) {
	delete(t.index, w.chunk)
	if w.prev >= 0 {
		t.slab[w.prev].next = w.next
	} else {
		t.oldest = w.next
	}
	if w.next >= 0 {
		t.slab[w.next].prev = w.prev
	} else {
		t.newest = w.prev
	}
	w.next = t.free
	t.free = w.slot
}

func (t *mapWantTable) expire(now, retention msg.Period) {
	for t.oldest >= 0 {
		w := &t.slab[t.oldest]
		if now-w.born < retention {
			return
		}
		t.release(w)
	}
}

// slotOf is the slab index of w, or -1 for nil.
func slotOf(w *want) int32 {
	if w == nil {
		return -1
	}
	return w.slot
}

// The ring-indexed want table does exactly what the map-indexed one did:
// every obtain, get, release and expire of a long random schedule finds the
// same record, and leaves the same slab, free list and age list behind. The
// schedule's ids are a stream's — a window of dense ids that moves forward,
// wants that arrive out of order and stragglers left behind — mixed with a
// flood of hostile ones drawn from the whole id space. Small limits push the
// ring to its horizon and the sparse map into use.
func TestWantIndexMatchesMapTable(t *testing.T) {
	for _, limit := range []int{3, 20, 160, 2400} {
		for _, hostile := range []float64{0, 0.05, 0.5} {
			t.Run(fmt.Sprintf("limit=%d/hostile=%v", limit, hostile), func(t *testing.T) {
				r := rng.New(uint64(limit) + uint64(hostile*100))
				got, want := newWantTable(limit), newMapWantTable(limit)
				var head msg.ChunkID // the stream's newest id
				now := msg.Period(1)
				id := func() msg.ChunkID {
					switch {
					case r.Bernoulli(hostile):
						return msg.ChunkID(r.Uint64())
					case r.Bernoulli(0.1) && head > 400:
						return head - 400 + msg.ChunkID(r.IntN(100)) // a straggler
					default:
						return head - msg.ChunkID(min(int(head), r.IntN(24)))
					}
				}
				spilled := false
				for op := range 40_000 {
					var g, w int32
					switch k := r.IntN(10); {
					case k < 5:
						c := id()
						g, w = slotOf(got.obtain(c, now)), slotOf(want.obtain(c, now))
					case k < 8:
						c := id()
						g, w = slotOf(got.get(c)), slotOf(want.get(c))
						if g >= 0 && w >= 0 {
							got.release(got.get(c))
							want.release(want.get(c))
						}
					case k < 9:
						head += msg.ChunkID(1 + r.IntN(4))
						if r.Bernoulli(0.2) {
							now++
						}
					default:
						got.expire(now, 10)
						want.expire(now, 10)
					}
					if g != w {
						t.Fatalf("op %d: the ring table answers slot %d, the map table %d", op, g, w)
					}
					if got.live != len(want.index) || got.free != want.free || got.oldest != want.oldest || got.newest != want.newest {
						t.Fatalf("op %d: ring table %d live, free %d, ages %d..%d; map table %d, %d, %d..%d", op,
							got.live, got.free, got.oldest, got.newest, len(want.index), want.free, want.oldest, want.newest)
					}
					spilled = spilled || len(got.index.far) > 0
				}
				if len(got.slab) != len(want.slab) {
					t.Fatalf("the ring table's slab holds %d records, the map table's %d", len(got.slab), len(want.slab))
				}
				for i := range got.slab {
					if !reflect.DeepEqual(got.slab[i], want.slab[i]) {
						t.Fatalf("record %d: ring table %+v, map table %+v", i, got.slab[i], want.slab[i])
					}
				}
				if len(got.index.ring) > got.index.horizon {
					t.Fatalf("the ring grew to %d entries, past its horizon %d", len(got.index.ring), got.index.horizon)
				}
				if hostile >= 0.5 && limit >= 160 && !spilled {
					t.Fatal("a flood of hostile ids never reached the sparse map: the schedule does not test it")
				}
			})
		}
	}
}
