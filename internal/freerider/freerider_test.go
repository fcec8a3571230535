package freerider

import (
	"math"
	"testing"
	"testing/quick"

	"lifting/internal/gossip"
	"lifting/internal/membership"
	"lifting/internal/msg"
	"lifting/internal/rng"
)

func TestDegreeFanout(t *testing.T) {
	cases := []struct {
		d1   float64
		f    int
		want int
	}{
		{0, 7, 7},
		{1.0 / 7, 7, 6}, // the paper's PlanetLab setting: f̂ = 6
		{0.5, 12, 6},
		{1, 7, 0},
		{0.1, 12, 11},
	}
	for _, c := range cases {
		d := Degree{Delta1: c.d1}
		if got := d.Fanout(c.f); got != c.want {
			t.Errorf("Fanout(δ1=%v, f=%d) = %d, want %d", c.d1, c.f, got, c.want)
		}
	}
}

func TestDegreeFilterProposalDropsWholeServers(t *testing.T) {
	// δ2 = 1 drops everything; chunks from the same server drop together.
	s := rng.New(1)
	chunks := []msg.ChunkID{0, 1, 2, 3, 4, 5}
	origin := []msg.NodeID{0, 1, 2, 0, 1, 2}
	d := Degree{Delta2: 1}
	if out := d.FilterProposal(s, chunks, origin); len(out) != 0 {
		t.Fatalf("δ2=1 kept %v", out)
	}
	d = Degree{Delta2: 0}
	if out := d.FilterProposal(s, chunks, origin); len(out) != 6 {
		t.Fatalf("δ2=0 dropped chunks: %v", out)
	}
	// Per-server atomicity: for any draw, chunks 0 and 3 (same origin)
	// are either both kept or both dropped.
	d = Degree{Delta2: 0.5}
	for trial := 0; trial < 100; trial++ {
		out := d.FilterProposal(s, chunks, origin)
		has := map[msg.ChunkID]bool{}
		for _, c := range out {
			has[c] = true
		}
		if has[0] != has[3] || has[1] != has[4] || has[2] != has[5] {
			t.Fatalf("server's chunks split: %v", out)
		}
	}
}

func TestDegreeFilterProposalRate(t *testing.T) {
	s := rng.New(2)
	chunks := make([]msg.ChunkID, 1000)
	origin := make([]msg.NodeID, len(chunks)) // all distinct servers
	for i := range chunks {
		chunks[i], origin[i] = msg.ChunkID(i), msg.NodeID(i)
	}
	d := Degree{Delta2: 0.3}
	kept := len(d.FilterProposal(s, chunks, origin))
	if math.Abs(float64(kept)/1000-0.7) > 0.05 {
		t.Fatalf("kept %d/1000, want ≈700", kept)
	}
}

func TestDegreeFilterServeRate(t *testing.T) {
	s := rng.New(3)
	req := make([]msg.ChunkID, 2000)
	for i := range req {
		req[i] = msg.ChunkID(i)
	}
	d := Degree{Delta3: 0.3}
	served := len(d.FilterServe(s, req))
	if math.Abs(float64(served)/2000-0.7) > 0.04 {
		t.Fatalf("served %d/2000, want ≈1400", served)
	}
	if got := (Degree{}).FilterServe(s, req); len(got) != len(req) {
		t.Fatal("δ3=0 must serve everything")
	}
}

func TestDegreeLiesInAcks(t *testing.T) {
	d := Degree{Delta2: 0.5}
	received := []msg.ChunkID{1, 2, 3}
	proposed := []msg.ChunkID{1} // dropped 2 and 3
	if got := d.AckChunks(received, proposed); len(got) != 3 {
		t.Fatalf("freerider ack = %v, want the full received set (the lie)", got)
	}
	// Honest acks only what was proposed.
	if got := (gossip.Honest{}).AckChunks(received, proposed); len(got) != 1 {
		t.Fatalf("honest ack = %v, want only proposed chunks", got)
	}
}

func TestPeriodStretcher(t *testing.T) {
	if f := (PeriodStretcher{Factor: 2}).PeriodFactor(); f != 2 {
		t.Fatalf("factor = %v, want 2", f)
	}
	if f := (PeriodStretcher{Factor: 0.5}).PeriodFactor(); f != 1 {
		t.Fatalf("sub-unit factor should clamp to 1, got %v", f)
	}
}

func newColluderWorld(t *testing.T, pm float64) (*Colluder, *membership.Directory, *rng.Stream) {
	t.Helper()
	dir := membership.Sequential(100)
	coalition := []msg.NodeID{90, 91, 92, 93, 94}
	c := NewColluder(90, coalition, pm, dir, rng.New(5))
	return c, dir, rng.New(6)
}

func TestColluderBiasesSelection(t *testing.T) {
	c, dir, s := newColluderWorld(t, 0.5)
	inCoalition := 0
	total := 0
	for trial := 0; trial < 500; trial++ {
		for _, p := range c.SelectPartners(s, dir, 90, 7) {
			total++
			if c.Group[p] {
				inCoalition++
			}
		}
	}
	rate := float64(inCoalition) / float64(total)
	// pm = 0.5 but self-picks are rejected: expect a bit under 0.5.
	if rate < 0.3 || rate > 0.55 {
		t.Fatalf("coalition pick rate = %v, want ≈0.45", rate)
	}
}

func TestColluderSelectionValid(t *testing.T) {
	c, dir, s := newColluderWorld(t, 0.9)
	f := func(seed uint16) bool {
		out := c.SelectPartners(rng.New(uint64(seed)), dir, 90, 4)
		seen := map[msg.NodeID]bool{}
		for _, p := range out {
			if p == 90 || seen[p] || !dir.Alive(p) {
				return false
			}
			seen[p] = true
		}
		return len(out) == 4
	}
	_ = s
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestColluderCoverUp(t *testing.T) {
	c, _, _ := newColluderWorld(t, 0.5)
	if !c.ConfirmAnswer(91, false) {
		t.Fatal("colluder did not cover a coalition member")
	}
	if c.ConfirmAnswer(10, false) {
		t.Fatal("colluder lied about a non-member")
	}
	if !c.ConfirmAnswer(10, true) {
		t.Fatal("colluder denied a true statement about a non-member")
	}
}

func TestColluderMITM(t *testing.T) {
	c, _, _ := newColluderWorld(t, 0.5)
	actual := []msg.NodeID{1, 2, 3}
	if got := c.AckPartners(actual); len(got) != 3 || got[0] != 1 {
		t.Fatalf("non-MITM colluder altered ack partners: %v", got)
	}
	if got := c.ClaimedOrigin(7); got != 7 {
		t.Fatalf("non-MITM colluder altered origin: %v", got)
	}
	c.MITM = true
	forged := c.AckPartners(actual)
	if len(forged) != 3 {
		t.Fatalf("MITM ack partners length = %d", len(forged))
	}
	for _, p := range forged {
		if !c.Group[p] {
			t.Fatalf("MITM claimed non-coalition partner %d", p)
		}
	}
	if got := c.ClaimedOrigin(7); !c.Group[got] {
		t.Fatalf("MITM claimed non-coalition origin %d", got)
	}
}

func TestColluderForgeAudit(t *testing.T) {
	c, _, _ := newColluderWorld(t, 0.5)
	resp := &msg.AuditResp{Sender: 90, Proposals: []msg.ProposalRecord{
		{Period: 1, Partner: 91, Chunks: []msg.ChunkID{1}},
		{Period: 1, Partner: 10, Chunks: []msg.ChunkID{2}},
	}}
	// Without forging, the snapshot passes through.
	if got := c.ForgeAudit(resp); got != resp {
		t.Fatal("non-forging colluder rewrote the snapshot")
	}
	c.ForgeUniform = true
	forged := c.ForgeAudit(resp)
	if forged == resp {
		t.Fatal("forging colluder returned the original")
	}
	if c.Group[forged.Proposals[0].Partner] {
		t.Fatal("coalition partner not rewritten")
	}
	if forged.Proposals[1].Partner != 10 {
		t.Fatal("honest partner should be untouched")
	}
	// The original snapshot is not mutated.
	if resp.Proposals[0].Partner != 91 {
		t.Fatal("ForgeAudit mutated the original snapshot")
	}
}

func TestBehaviorInterfaceCompliance(t *testing.T) {
	// All strategies are valid gossip behaviors.
	var behaviors []gossip.Behavior
	c, _, _ := newColluderWorld(t, 0.2)
	behaviors = append(behaviors,
		Degree{Delta1: 0.1},
		PeriodStretcher{Factor: 2},
		c,
	)
	for _, b := range behaviors {
		if b.PeriodFactor() < 1 {
			t.Fatalf("%T: period factor < 1", b)
		}
	}
}

func TestStretchingColluder(t *testing.T) {
	c, _, _ := newColluderWorld(t, 0.5)
	sc := StretchingColluder{Colluder: c, Factor: 2}
	if f := sc.PeriodFactor(); f != 2 {
		t.Fatalf("factor = %v, want 2", f)
	}
	if f := (StretchingColluder{Colluder: c, Factor: 0.5}).PeriodFactor(); f != 1 {
		t.Fatalf("sub-unit factor should clamp to 1, got %v", f)
	}
	// The coalition attacks compose: cover-up and biased selection survive
	// the embedding.
	if !sc.ConfirmAnswer(91, false) {
		t.Fatal("stretching colluder did not cover a coalition member")
	}
	if got := sc.Fanout(7); got != 7 {
		t.Fatalf("stretching colluder altered fanout: %d", got)
	}
}

func TestBlameSpammer(t *testing.T) {
	dir := membership.Sequential(50)
	b := &BlameSpammer{Self: 7, Dir: dir}
	s := rng.New(4)
	seenTargets := map[msg.NodeID]bool{}
	for trial := 0; trial < 200; trial++ {
		acc := b.SpamBlames(s)
		if len(acc) != spamTargets {
			t.Fatalf("got %d accusations, want %d", len(acc), spamTargets)
		}
		perPeriod := map[msg.NodeID]bool{}
		for _, target := range acc {
			if target == 7 {
				t.Fatal("spammer accused itself")
			}
			if perPeriod[target] {
				t.Fatal("duplicate target within one period")
			}
			perPeriod[target] = true
			seenTargets[target] = true
		}
	}
	// Targets are spread over the membership, not fixated.
	if len(seenTargets) < 40 {
		t.Fatalf("spam hit only %d distinct targets over 200 periods", len(seenTargets))
	}
}

func TestBlameSpammerDisabled(t *testing.T) {
	s := rng.New(4)
	if acc := (&BlameSpammer{Self: 1}).SpamBlames(s); acc != nil {
		t.Fatalf("spammer without a directory emitted %v", acc)
	}
}
