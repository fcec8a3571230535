package reputation

import (
	"math"
	"testing"

	"lifting/internal/msg"
	"lifting/internal/rng"
)

// refBoard is the Board this package carried until its entries moved into
// the map by value: one heap Entry per tracked node, behind a pointer, and a
// fresh one on every Adopt. Kept as the oracle the value board is driven
// against.
type refBoard struct {
	compensation float64
	period       msg.Period
	entries      map[msg.NodeID]*Entry
}

func newRefBoard(compensation float64) *refBoard {
	return &refBoard{compensation: compensation, entries: make(map[msg.NodeID]*Entry)}
}

func (b *refBoard) SetPeriod(p msg.Period) {
	if p > b.period {
		b.period = p
	}
}

func (b *refBoard) Join(id msg.NodeID) { b.entry(id) }

func (b *refBoard) entry(id msg.NodeID) *Entry {
	e, ok := b.entries[id]
	if !ok {
		e = &Entry{JoinPeriod: b.period}
		b.entries[id] = e
	}
	return e
}

func (b *refBoard) Tracked(id msg.NodeID) bool {
	_, ok := b.entries[id]
	return ok
}

func (b *refBoard) AddBlame(target msg.NodeID, value float64) {
	b.entry(target).TotalBlame += value
}

func (b *refBoard) Periods(target msg.NodeID) int {
	e, ok := b.entries[target]
	if !ok {
		return 0
	}
	r := int(b.period) - int(e.JoinPeriod)
	if r < 1 {
		r = 1
	}
	return r
}

func (b *refBoard) Score(target msg.NodeID) float64 {
	e, ok := b.entries[target]
	if !ok {
		return 0
	}
	r := float64(b.Periods(target))
	return b.compensation - e.TotalBlame/r
}

func (b *refBoard) MarkExpelled(target msg.NodeID, reason msg.BlameReason) bool {
	e := b.entry(target)
	if e.Expelled {
		return false
	}
	e.Expelled = true
	e.Reason = reason
	return true
}

func (b *refBoard) Expelled(target msg.NodeID) bool {
	if e, ok := b.entries[target]; ok {
		return e.Expelled
	}
	return false
}

func (b *refBoard) Adopt(target msg.NodeID, e Entry) {
	ee := e
	b.entries[target] = &ee
}

func (b *refBoard) Drop(target msg.NodeID) { delete(b.entries, target) }

func (b *refBoard) Entry(target msg.NodeID) (Entry, bool) {
	if e, ok := b.entries[target]; ok {
		return *e, true
	}
	return Entry{}, false
}

func (b *refBoard) Len() int { return len(b.entries) }

func (b *refBoard) Each(fn func(id msg.NodeID, e Entry)) {
	for id, e := range b.entries {
		fn(id, *e)
	}
}

// TestBoardMatchesPointerReference drives the board and refBoard with one
// seeded sequence of joins, blames, expulsions, adoptions, drops and period
// advances (some of them backwards, which SetPeriod ignores) over a few dozen
// ids. After every step both must hold the same entries — Entry, Tracked,
// Expelled, Periods and a bit-equal Score for every id, tracked or not — and
// the same Len and Each sets.
func TestBoardMatchesPointerReference(t *testing.T) {
	const ids, steps = 40, 1500
	for seed := uint64(1); seed <= 24; seed++ {
		r := rng.New(seed).Derive("board")
		comp := r.Float64() * 80
		b, ref := NewBoard(comp), newRefBoard(comp)
		for step := 0; step < steps; step++ {
			id := msg.NodeID(r.IntN(ids))
			switch r.IntN(8) {
			case 0:
				b.Join(id)
				ref.Join(id)
			case 1, 2:
				v := r.Float64() * 20
				b.AddBlame(id, v)
				ref.AddBlame(id, v)
			case 3:
				reason := msg.BlameReason(r.IntN(9))
				if got, want := b.MarkExpelled(id, reason), ref.MarkExpelled(id, reason); got != want {
					t.Fatalf("seed %d step %d: MarkExpelled(%d) = %v, reference %v", seed, step, id, got, want)
				}
			case 4:
				e := Entry{
					TotalBlame: r.Float64() * 500,
					JoinPeriod: msg.Period(r.IntN(int(ref.period) + 3)),
					Expelled:   r.Bernoulli(0.2),
					Reason:     msg.BlameReason(r.IntN(9)),
				}
				b.Adopt(id, e)
				ref.Adopt(id, e)
			case 5:
				b.Drop(id)
				ref.Drop(id)
			default:
				p := ref.period + msg.Period(r.IntN(4))
				if p > 0 && r.Bernoulli(0.2) {
					p-- // sometimes no advance at all, or a step back both ignore
				}
				b.SetPeriod(p)
				ref.SetPeriod(p)
			}
			sameBoards(t, seed, step, b, ref, ids)
		}
	}
}

func sameBoards(t *testing.T, seed uint64, step int, b *Board, ref *refBoard, ids int) {
	t.Helper()
	for i := 0; i <= ids; i++ { // ids itself is never tracked
		id := msg.NodeID(i)
		got, gotOK := b.Entry(id)
		want, wantOK := ref.Entry(id)
		if got != want || gotOK != wantOK {
			t.Fatalf("seed %d step %d: Entry(%d) = %+v %v, reference %+v %v", seed, step, id, got, gotOK, want, wantOK)
		}
		if b.Tracked(id) != ref.Tracked(id) || b.Expelled(id) != ref.Expelled(id) || b.Periods(id) != ref.Periods(id) {
			t.Fatalf("seed %d step %d: id %d: tracked/expelled/periods %v/%v/%d, reference %v/%v/%d", seed, step, id,
				b.Tracked(id), b.Expelled(id), b.Periods(id), ref.Tracked(id), ref.Expelled(id), ref.Periods(id))
		}
		if gs, ws := b.Score(id), ref.Score(id); math.Float64bits(gs) != math.Float64bits(ws) {
			t.Fatalf("seed %d step %d: Score(%d) = %v, reference %v", seed, step, id, gs, ws)
		}
	}
	if b.Len() != ref.Len() {
		t.Fatalf("seed %d step %d: Len = %d, reference %d", seed, step, b.Len(), ref.Len())
	}
	got, want := map[msg.NodeID]Entry{}, map[msg.NodeID]Entry{}
	b.Each(func(id msg.NodeID, e Entry) { got[id] = e })
	ref.Each(func(id msg.NodeID, e Entry) { want[id] = e })
	if len(got) != len(want) {
		t.Fatalf("seed %d step %d: Each visits %d entries, reference %d", seed, step, len(got), len(want))
	}
	for id, e := range want {
		if g, ok := got[id]; !ok || g != e {
			t.Fatalf("seed %d step %d: Each gives %d → %+v (%v), reference %+v", seed, step, id, g, ok, e)
		}
	}
}

// TestBoardTrackedTargetAllocsZero pins what storing entries by value buys:
// once the map has grown, blaming, adopting for and expelling a tracked
// target overwrite its entry in place and allocate nothing. The pointer
// board made a heap Entry on every Adopt.
func TestBoardTrackedTargetAllocsZero(t *testing.T) {
	b := NewBoard(10)
	for id := msg.NodeID(0); id < 1000; id++ {
		b.Join(id)
	}
	replica := Entry{TotalBlame: 30, JoinPeriod: 0, Reason: msg.ReasonNoAck}
	for _, c := range []struct {
		name string
		op   func()
	}{
		{"AddBlame", func() { b.AddBlame(500, 1.5) }},
		{"Adopt", func() { b.Adopt(501, replica) }},
		{"MarkExpelled", func() { b.MarkExpelled(502, msg.ReasonNoAck) }},
	} {
		if got := testing.AllocsPerRun(100, c.op); got != 0 {
			t.Errorf("%s on a tracked target allocates %v objects, want 0", c.name, got)
		}
	}
}
