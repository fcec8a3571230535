package cluster

import (
	"context"
	"math"
	"slices"
	"testing"
	"time"

	"lifting/internal/core"
	"lifting/internal/freerider"
	"lifting/internal/gossip"
	"lifting/internal/membership"
	"lifting/internal/msg"
	"lifting/internal/net"
	"lifting/internal/reputation"
	"lifting/internal/rng"
	"lifting/internal/stats"
	"lifting/internal/stream"
)

const tg = 500 * time.Millisecond

func baseOptions(n int, loss float64) Options {
	return Options{
		N:    n,
		Seed: 1,
		Gossip: gossip.Config{
			F:              7,
			Period:         tg,
			ChunkPayload:   1316,
			HistoryPeriods: 50,
		},
		Core: core.Config{
			F:              7,
			Period:         tg,
			Pdcc:           1,
			HistoryPeriods: 50,
			Gamma:          8.0,
			Eta:            -9.75,
		},
		Rep:          reputation.Config{M: 10, Eta: -9.75},
		Stream:       stream.Config{BitrateBps: 674_000, ChunkPayload: 1316},
		NetDefaults:  net.Uniform(loss, 2*time.Millisecond),
		LiFTinG:      true,
		ExpectedLoss: loss,
	}
}

func run(c *Cluster, d time.Duration) {
	c.Start()
	c.StartStream(d)
	// Let trailing verifications resolve after the stream ends.
	c.Run(d + time.Second)
}

func TestHonestScoresCenterAtZero(t *testing.T) {
	// The mini Figure 10: an all-honest system under loss; compensated
	// scores must average near zero (§6.2). Compensation is calibrated from
	// an honest pilot (see Calibration) because the chunk workload is
	// lighter than the saturated model of the analysis.
	opts := baseOptions(80, 0.07)
	cal, calErr := Calibrate(context.Background(), opts, 8*time.Second)
	if calErr != nil {
		t.Fatal(calErr)
	}
	if cal.Compensation <= 0 {
		t.Fatalf("calibration found no wrongful blame under 7%% loss: %+v", cal)
	}
	opts.Rep.Compensation = cal.Compensation
	c := New(opts)
	run(c, 8*time.Second)
	var m stats.Moments
	for id, s := range c.Scores() {
		if id == 0 {
			continue // the source serves everyone but requests nothing
		}
		m.Add(s)
	}
	if math.Abs(m.Mean()) > 3*cal.ScoreStd {
		t.Fatalf("honest mean score = %v (σ=%v, cal σ=%v), want ≈0", m.Mean(), m.Std(), cal.ScoreStd)
	}
	if len(c.Expelled) > 4 {
		t.Fatalf("%d honest nodes expelled", len(c.Expelled))
	}
}

func TestFreeridersScoreBelowHonest(t *testing.T) {
	opts := baseOptions(80, 0.05)
	free := map[msg.NodeID]bool{}
	opts.BehaviorFor = func(id msg.NodeID, _ *membership.Directory, _ *rng.Stream) gossip.Behavior {
		if id >= 70 { // 10 freeriders
			free[id] = true
			return freerider.Degree{Delta1: 0.3, Delta2: 0.3, Delta3: 0.3}
		}
		return nil
	}
	c := New(opts)
	run(c, 20*time.Second)

	var honest, riders stats.Moments
	for id, s := range c.Scores() {
		if id == 0 {
			continue
		}
		if free[id] {
			riders.Add(s)
		} else {
			honest.Add(s)
		}
	}
	if riders.Mean() >= honest.Mean() {
		t.Fatalf("freerider mean %v not below honest mean %v", riders.Mean(), honest.Mean())
	}
	// The per-period blame gap for δ = 0.3 should be several units.
	if gap := honest.Mean() - riders.Mean(); gap < 5 {
		t.Fatalf("score gap %v too small", gap)
	}
	// The distributions must be nearly separable (the "gap" of Figure 11a).
	// The honest side has a thin low tail — in most seeds one node in 69
	// collects a run of wrongful blame and sits among the freeriders — so
	// the honest edge is its 5% quantile, not its minimum; at r ≈ 40 periods
	// a stray low-traffic freerider may still straddle that edge, so allow
	// at most one.
	var honestScores []float64
	for id, s := range c.Scores() {
		if id != 0 && !free[id] {
			honestScores = append(honestScores, s)
		}
	}
	honestEdge := stats.NewECDF(honestScores).Quantile(0.05)
	straddlers := 0
	for id, s := range c.Scores() {
		if free[id] && s >= honestEdge {
			straddlers++
		}
	}
	if straddlers > 1 {
		t.Fatalf("%d/10 freeriders scored above the honest 5%% quantile (%v)", straddlers, honestEdge)
	}
}

func TestExpelOnDetectionRemovesFreeriders(t *testing.T) {
	opts := baseOptions(60, 0.02)
	cal, calErr := Calibrate(context.Background(), opts, 8*time.Second)
	if calErr != nil {
		t.Fatal(calErr)
	}
	opts.Rep.Compensation = cal.Compensation
	opts.Rep.Eta = -5
	opts.ExpelOnDetection = true
	opts.BehaviorFor = func(id msg.NodeID, _ *membership.Directory, _ *rng.Stream) gossip.Behavior {
		if id >= 54 {
			return freerider.Degree{Delta1: 0.4, Delta2: 0.4, Delta3: 0.4}
		}
		return nil
	}
	c := New(opts)
	run(c, 10*time.Second)

	detected := 0
	falsePos := 0
	for id := range c.Expelled {
		if id >= 54 {
			detected++
		} else {
			falsePos++
		}
	}
	if detected < 4 {
		t.Fatalf("only %d/6 aggressive freeriders expelled", detected)
	}
	if falsePos > 6 {
		t.Fatalf("%d honest nodes wrongfully expelled", falsePos)
	}
	// Expelled nodes are really gone.
	for id := range c.Expelled {
		if c.Dir.Alive(id) {
			t.Fatalf("expelled node %d still in membership", id)
		}
		if !c.Nodes[id].Stopped() {
			t.Fatalf("expelled node %d still running", id)
		}
	}
}

// TestManagersRefuseSelfAbsolutionAndForgedVerdicts: the two attacks on the
// managers that need no more than sending a message. Six freeriders each
// send their own managers a blame of −1e12 about themselves at 1 s, and
// node 1, no manager of honest node 7, sends one of 7's managers an Expel
// of 7 (before the managers refused them, 0 of the 6 were expelled, and 7
// was). All six freeriders go, as they do without the blame, and 7 stays.
func TestManagersRefuseSelfAbsolutionAndForgedVerdicts(t *testing.T) {
	opts := baseOptions(40, 0)
	opts.ExpelOnDetection = true
	opts.Rep.Eta = -3 // lossless: an honest node is never blamed
	opts.BehaviorFor = func(id msg.NodeID, _ *membership.Directory, _ *rng.Stream) gossip.Behavior {
		if id >= 34 {
			return freerider.Degree{Delta1: 0.5, Delta2: 0.5, Delta3: 0.5}
		}
		return nil
	}
	c := New(opts)
	c.After(time.Second, func() {
		netw := c.RT.Network()
		for id := msg.NodeID(34); id < 40; id++ {
			for _, mgr := range c.Dir.Managers(id, opts.Rep.M) {
				netw.Send(id, mgr, &msg.Blame{Sender: id, Target: id, Value: -1e12}, net.Unreliable)
			}
		}
		mgrs := c.Dir.Managers(7, opts.Rep.M)
		if slices.Contains(mgrs, 1) {
			t.Error("node 1 manages node 7: pick another forger")
		}
		netw.Send(1, mgrs[0], &msg.Expel{Sender: 1, Target: 7}, net.Unreliable)
	})
	run(c, 10*time.Second)
	for id := msg.NodeID(34); id < 40; id++ {
		if _, ok := c.Expelled[id]; !ok {
			t.Errorf("freerider %d absolved itself", id)
		}
	}
	if at, ok := c.Expelled[7]; ok {
		t.Errorf("honest node 7 expelled at %v by a forged verdict", at)
	}
}

func TestMessageModeAgreesWithDirectMode(t *testing.T) {
	// Blames batched to the managers as messages, read by min-vote over
	// their copies, separate freeriders from honest nodes under loss, as
	// the one keeper blamed by call that this route replaced did.
	opts := baseOptions(50, 0.02)
	opts.BehaviorFor = func(id msg.NodeID, _ *membership.Directory, _ *rng.Stream) gossip.Behavior {
		if id >= 45 {
			return freerider.Degree{Delta1: 0.3, Delta2: 0.3, Delta3: 0.3}
		}
		return nil
	}
	c := New(opts)
	run(c, 6*time.Second)
	scores := c.Scores()
	var honest, riders stats.Moments
	for id, s := range scores {
		if id == 0 {
			continue
		}
		if id >= 45 {
			riders.Add(s)
		} else {
			honest.Add(s)
		}
	}
	if riders.Mean() >= honest.Mean() {
		t.Fatalf("scores do not separate: riders %v vs honest %v", riders.Mean(), honest.Mean())
	}
}

func TestStreamHealthBaseline(t *testing.T) {
	// Without freeriders the stream reaches almost everyone within a small
	// lag.
	opts := baseOptions(60, 0.02)
	opts.LiFTinG = false
	opts.TrackPlayout = true
	c := New(opts)
	run(c, 5*time.Second)
	total := opts.Stream.ChunksBy(4 * time.Second) // ignore the tail chunks
	playouts := make([]*stream.Playout, 0, len(c.Playouts))
	for id, p := range c.Playouts {
		if id == 0 {
			continue
		}
		playouts = append(playouts, p)
	}
	h := stream.Health(playouts, total, []time.Duration{4 * time.Second})
	if h[0] < 0.9 {
		t.Fatalf("baseline health at 4s lag = %v, want > 0.9", h[0])
	}
}

func TestFreeridersDegradeHealthWithoutLiFTinG(t *testing.T) {
	mkOpts := func(withFreeriders bool) Options {
		opts := baseOptions(60, 0.02)
		opts.LiFTinG = false
		opts.TrackPlayout = true
		if withFreeriders {
			opts.BehaviorFor = func(id msg.NodeID, _ *membership.Directory, _ *rng.Stream) gossip.Behavior {
				if id >= 45 { // 25% freeride hard
					return freerider.Degree{Delta1: 0.9, Delta2: 0.9, Delta3: 0.9}
				}
				return nil
			}
		}
		return opts
	}
	health := func(opts Options) float64 {
		c := New(opts)
		run(c, 5*time.Second)
		total := opts.Stream.ChunksBy(4 * time.Second)
		playouts := make([]*stream.Playout, 0, len(c.Playouts))
		for id, p := range c.Playouts {
			if id == 0 {
				continue
			}
			playouts = append(playouts, p)
		}
		return stream.Health(playouts, total, []time.Duration{3 * time.Second})[0]
	}
	base := health(mkOpts(false))
	degraded := health(mkOpts(true))
	if degraded >= base {
		t.Fatalf("hard freeriding did not degrade health: %v vs baseline %v", degraded, base)
	}
}

func TestAuditExpelsColluders(t *testing.T) {
	// A coalition pushing most proposals at itself fails the fanout
	// entropy check.
	opts := baseOptions(60, 0.0)
	opts.ExpelOnDetection = true
	opts.Core.Gamma = 4.0
	// Fanin evidence in a 60-node, dozen-period run is naturally skewed
	// (fast nodes win the first-proposal race); the colluders are caught by
	// the fanout check.
	opts.Core.GammaFanin = 2.0
	opts.Core.MinEntropySamples = 16
	coalition := []msg.NodeID{54, 55, 56, 57, 58, 59}
	opts.BehaviorFor = func(id msg.NodeID, dir *membership.Directory, r *rng.Stream) gossip.Behavior {
		for _, m := range coalition {
			if id == m {
				return freerider.NewColluder(id, coalition, 0.9, dir, r)
			}
		}
		return nil
	}
	c := New(opts)
	var outcomes []core.AuditOutcome
	auditor := c.Auditor(func(out core.AuditOutcome) { outcomes = append(outcomes, out) })
	c.Start()
	c.StartStream(6 * time.Second)
	// Audit a colluder and an honest node after histories accumulate.
	c.After(5*time.Second, func() {
		auditor.Audit(54)
		auditor.Audit(10)
	})
	c.Run(8 * time.Second)

	if len(outcomes) != 2 {
		t.Fatalf("got %d audit outcomes, want 2", len(outcomes))
	}
	byTarget := map[msg.NodeID]core.AuditOutcome{}
	for _, o := range outcomes {
		byTarget[o.Target] = o
	}
	col := byTarget[54]
	hon := byTarget[10]
	if !col.Expel {
		t.Fatalf("colluder passed the audit: %+v", col)
	}
	if hon.Expel {
		t.Fatalf("honest node failed the audit: %+v", hon)
	}
	if col.FanoutEntropy >= hon.FanoutEntropy {
		t.Fatalf("colluder fanout entropy %v not below honest %v", col.FanoutEntropy, hon.FanoutEntropy)
	}
	if _, gone := c.Expelled[54]; !gone {
		t.Fatal("audit verdict did not expel the colluder")
	}
}

func TestCompensationForScalesWithPdcc(t *testing.T) {
	full := CompensationFor(0.07, 12, 4, 1)
	half := CompensationFor(0.07, 12, 4, 0.5)
	none := CompensationFor(0.07, 12, 4, 0)
	if !(none < half && half < full) {
		t.Fatalf("compensation not increasing in pdcc: %v %v %v", none, half, full)
	}
	// pdcc = 1 equals the paper's b̃ = 72.95.
	if math.Abs(full-72.95) > 0.05 {
		t.Fatalf("compensation at pdcc=1 = %v, want 72.95", full)
	}
}

func TestDeterministicCluster(t *testing.T) {
	runOnce := func() float64 {
		opts := baseOptions(40, 0.05)
		c := New(opts)
		run(c, 3*time.Second)
		scores := c.Scores()
		var sum float64
		for i := 0; i < 40; i++ { // fixed order: float addition is not associative
			sum += scores[msg.NodeID(i)]
		}
		return sum
	}
	if a, b := runOnce(), runOnce(); a != b {
		t.Fatalf("two identical cluster runs diverged: %v vs %v", a, b)
	}
}
