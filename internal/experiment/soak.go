package experiment

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strings"
	"time"

	"lifting/internal/chaos"
	"lifting/internal/cluster"
	"lifting/internal/core"
	"lifting/internal/gossip"
	"lifting/internal/metrics"
	"lifting/internal/msg"
	"lifting/internal/net"
	"lifting/internal/reputation"
	"lifting/internal/rng"
	"lifting/internal/runtime"
)

// soakWorkload declares the soak: churn plus one adversary cohort plus a
// seeded fault schedule (crashes with restarts, partitions, loss bursts,
// duplication, reordering, clock skew), all running at once against a set
// of standing invariants checked at every score period. Where the other
// cluster experiments each isolate one axis, the soak's subject is
// composition: LiFTinG's §4–§5 guarantees are statistical claims about
// detection under faulty conditions, so the expulsion verdict must survive
// the faults happening *while* the attack runs — and honest nodes that
// merely crashed, rebooted or sat behind a partition must not be expelled
// for it.
//
// At full size 120 nodes stream 30 s with 10 joins and 10 leaves and a
// fault plan touching roughly a third of the honest population. p.Filter
// names the tenth of the population that attacks: "freeride" (the default)
// or a matrix scenario, whose behavior the cohort then runs — "blame-spam"
// (§5.1 bad-mouthing) and "period-stretch" (§4.1(iv) gossip-period ×2) are
// the ones the tests soak. An unknown name leaves the cohort without a
// behavior, which the soak refuses.
func soakWorkload(p Params) workload {
	// Hard freeriding in fanout and propose, full serves — the same
	// self-contained δ profile the scale workload uses (δ3 blame would land
	// on honest receivers and poison the no-honest-expulsion invariant by
	// construction).
	delta, grace, churned := [3]float64{0.7, 0.7, 0}, 24, 10
	// η's floor under 16σ: 6 for blame-spam, whose whole point is wrongful
	// blame pressure on honest scores; 3 otherwise.
	floor := 3.0
	if p.Filter == "blame-spam" {
		floor = 6
	}
	faults := chaos.Config{
		Crashes:       4,
		Outage:        time.Second,
		Partitions:    2,
		PartitionSpan: 2 * time.Second,
		PartitionSize: 8,
		LossBursts:    2,
		BurstSpan:     2 * time.Second,
		BurstSize:     8,
		ReorderDelay:  20 * time.Millisecond,
		SkewCount:     4,
	}
	if p.Quick {
		// CI-smoke size (48 nodes, 25 s): it must finish in well under a
		// minute per backend, wall-clock bound on udp. Three knobs differ
		// from a plain shrink, all for the wall-clock backend where
		// scheduler jitter rides on top of the fault plan: the window is
		// 25 s (a marginal freerider's Total/r needs the extra periods to
		// converge past η when blame messages are lost in the burst), η
		// gets an absolute floor of 8 (the longer calibration pilot
		// measures a smaller σ, which would otherwise move η *up* toward
		// the honest fault transients it must clear), and the cohort
		// freerides harder (δ = 0.85 vs the full run's 0.7) so its
		// blame-rate asymptote sits well below that floor even when the
		// burst eats a fraction of the blame messages. At N = 48 the honest
		// and freerider score distributions are close enough that a single
		// jittery run can smear δ = 0.7 across an η safe for honest
		// transients; the full-size run keeps the paper-faithful profile.
		delta, grace, churned, floor = [3]float64{0.85, 0.85, 0}, 16, 4, 8
		faults.Crashes, faults.Outage = 2, 750*time.Millisecond
		faults.Partitions, faults.PartitionSize = 1, 5
		faults.LossBursts, faults.BurstSize = 1, 5
		faults.SkewCount = 3
	}
	behavior := degree(delta[0], delta[1], delta[2])
	if attack := p.Filter; attack != "" && attack != "freeride" {
		behavior = nil
		if i := slices.Index(ScenarioNames(), attack); i >= 0 {
			behavior = Scenarios()[i].spec.behavior
		}
	}
	co := cohortOf(p.N, 0.10, behavior)

	// Draw the departure set before generating the fault plan: a node that
	// leaves voluntarily cannot also crash or sit in a partition minority,
	// so the plan's candidates are the honest stayers. The adversary cohort
	// and the source stay out too — their fates are what the oracles
	// assert, so a fault must never be an alternative explanation.
	leavers := co.drawLeavers(rng.New(p.Seed).Derive("soak-churn"), churned)
	candidates := make([]msg.NodeID, 0, int(co.first())-1-len(leavers))
	for id := msg.NodeID(1); id < co.first(); id++ {
		if !slices.Contains(leavers, id) {
			candidates = append(candidates, id)
		}
	}
	faults.Seed, faults.Duration, faults.Candidates = p.Seed, p.Duration, candidates

	tg := 250 * time.Millisecond
	return workload{
		cohort:  co,
		seed:    p.Seed,
		backend: p.backend(),
		shards:  p.Shards,
		gossip:  gossip.Config{F: 7, Period: tg},
		core:    core.Config{Pdcc: 1, Gamma: 8},
		// M = 12 managers per node, so the crash→restart manager handoff
		// is exercised.
		rep:    reputation.Config{M: 12, GracePeriods: grace},
		net:    net.Uniform(0.01, 5*time.Millisecond),
		stream: p.Duration,
		tail:   2 * tg,
		// Calibrated on the clean configuration: b̃ and σ describe honest
		// behavior on the healthy network; the faults are what the
		// threshold must then tolerate. 16σ: a 25% correlated loss burst
		// costs a victim ≈10σ of transient blame before it amortizes (blame
		// grows superlinearly with loss), while δ = 0.7 freeriders sit
		// several times deeper by grace expiry.
		pilot:  p.Duration,
		sigmas: 16,
		floor:  floor,
		expel:  true,
		// Churn rides the same middle-half window as the fault plan: the
		// soak's point is everything at once.
		joins:    churned,
		leavers:  leavers,
		chaos:    chaos.Generate(faults),
		backends: []runtime.Kind{runtime.KindSim, runtime.KindUDP},
	}
}

// soakMaxViolations caps the violation transcript: a systemic breakage
// would otherwise flood the result with one line per period per kind.
const soakMaxViolations = 24

// soakChecker holds the standing-invariant state checked at every period
// snapshot: counter monotonicity, sent ≥ recv + dropped conservation,
// bounded per-manager reputation state, and the per-period goodput history
// the post-run recovery check reads. violated counts every violation;
// transcript describes the first soakMaxViolations of them.
type soakChecker struct {
	maxPop     int
	prevSnap   metrics.Snapshot
	goodput    map[msg.Period]uint64
	last       msg.Period
	periods    int
	maxTracked int
	violated   int
	transcript []string
	snaps      []metrics.Snapshot
}

func newSoakChecker(maxPop int) *soakChecker {
	return &soakChecker{maxPop: maxPop, goodput: make(map[msg.Period]uint64)}
}

func (k *soakChecker) fail(format string, args ...any) {
	k.violated++
	switch {
	case k.violated <= soakMaxViolations:
		k.transcript = append(k.transcript, fmt.Sprintf(format, args...))
	case k.violated == soakMaxViolations+1:
		k.transcript = append(k.transcript, "… further violations truncated")
	}
}

// check runs the per-period invariants against one snapshot. tracked is the
// largest per-manager tracked-target count at this period.
func (k *soakChecker) check(p msg.Period, snap metrics.Snapshot, tracked int) {
	k.periods++
	if tracked > k.maxTracked {
		k.maxTracked = tracked
	}
	if tracked > k.maxPop {
		k.fail("period %d: a manager tracks %d targets, population ever is %d", p, tracked, k.maxPop)
	}
	cur := make(map[string]metrics.KindCount, len(snap.Kinds))
	for _, kc := range snap.Kinds {
		cur[kc.Kind] = kc
		// Conservation: every sent message is eventually received or
		// dropped; the difference is in flight and never negative. (The
		// inequality direction also tolerates kernel-level UDP loss, which
		// the collector cannot see.)
		if kc.RecvMsgs+kc.DropMsgs > kc.SentMsgs {
			k.fail("period %d: %s messages not conserved: recv %d + dropped %d > sent %d",
				p, kc.Kind, kc.RecvMsgs, kc.DropMsgs, kc.SentMsgs)
		}
		if kc.RecvBytes+kc.DropBytes > kc.SentBytes {
			k.fail("period %d: %s bytes not conserved: recv %d + dropped %d > sent %d",
				p, kc.Kind, kc.RecvBytes, kc.DropBytes, kc.SentBytes)
		}
	}
	if k.periods > 1 {
		// Monotonicity, iterated in the previous snapshot's (deterministic)
		// kind order so a violation transcript is stable too.
		for _, pv := range k.prevSnap.Kinds {
			cv, ok := cur[pv.Kind]
			if !ok {
				k.fail("period %d: %s counters disappeared from the snapshot", p, pv.Kind)
				continue
			}
			if cv.SentMsgs < pv.SentMsgs || cv.RecvMsgs < pv.RecvMsgs || cv.DropMsgs < pv.DropMsgs ||
				cv.SentBytes < pv.SentBytes || cv.RecvBytes < pv.RecvBytes || cv.DropBytes < pv.DropBytes {
				k.fail("period %d: %s counters moved backwards", p, pv.Kind)
			}
		}
		for _, m := range []struct {
			name       string
			prev, curr uint64
		}{
			{"goodput bytes", k.prevSnap.GoodputBytes, snap.GoodputBytes},
			{"useful chunks", k.prevSnap.UsefulChunks, snap.UsefulChunks},
			{"dup chunks", k.prevSnap.DupChunks, snap.DupChunks},
			{"blames received", k.prevSnap.BlamesReceived, snap.BlamesReceived},
			{"expulsions", k.prevSnap.Expulsions, snap.Expulsions},
		} {
			if m.curr < m.prev {
				k.fail("period %d: %s moved backwards: %d → %d", p, m.name, m.prev, m.curr)
			}
		}
	}
	k.prevSnap = snap
	k.goodput[p] = snap.GoodputBytes
	if p > k.last {
		k.last = p
	}
	if int(p)%snapshotEvery == 0 {
		k.snaps = append(k.snaps, snap)
	}
}

// recovery runs the post-run goodput-recovery invariant: within
// recoveryPeriods of every heal-like event, cumulative goodput must have
// grown — the stream went back to delivering after the fault cleared.
func (k *soakChecker) recovery(plan *chaos.Plan, period time.Duration, recoveryPeriods int) {
	if k.last == 0 || period <= 0 {
		return
	}
	for _, ev := range plan.Events {
		switch ev.Kind {
		case chaos.Restart, chaos.Heal, chaos.LossHeal:
		default:
			continue
		}
		hp := msg.Period(ev.At/period) + 1
		cp := hp + msg.Period(recoveryPeriods)
		if cp > k.last {
			cp = k.last
		}
		if hp >= cp {
			continue
		}
		before, okB := k.goodput[hp]
		after, okA := k.goodput[cp]
		if !okB || !okA {
			continue
		}
		if after <= before {
			k.fail("no goodput recovery after %s at %s: %d bytes at period %d, still %d at period %d",
				ev.Kind, ev.At, before, hp, after, cp)
		}
	}
}

// soak runs the soak workload: calibrate a threshold on an honest
// chaos-free pilot, then stream under churn, the attack -filter selects
// (freeride, or a matrix scenario such as blame-spam or period-stretch) and
// the generated fault plan, with the standing invariants checked at every
// score period. Cancelling ctx aborts the run.
var soak = Experiment{
	Name: "soak", Paper: "beyond the paper — fault-plane soak",
	Describe:      "churn + one attack + a seeded fault schedule under standing invariant checkers",
	DefaultParams: Params{N: 120, Seed: 29, Duration: 30 * time.Second, Delta: -1, Pdcc: -1},
	quick:         Params{N: 48, Duration: 25 * time.Second},
	workloads:     func(p Params) []workload { return []workload{soakWorkload(p)} },
	run: func(ctx context.Context, p Params, out *Result, obs Observer) error {
		w := soakWorkload(p)
		attack := cmp.Or(p.Filter, "freeride")
		if w.behavior == nil {
			return fmt.Errorf("soak: unknown attack %q (want freeride or a matrix scenario: %s)",
				attack, strings.Join(ScenarioNames(), ", "))
		}
		// Recovery is bounded: after every heal-like event (restart,
		// partition heal, loss heal) cumulative goodput must have grown
		// within this many periods.
		recoveryPeriods := 16
		if p.Quick {
			recoveryPeriods = 12
		}

		maxPop := w.n + w.joins
		chk := newSoakChecker(maxPop)
		o, err := w.run(ctx, nil, hooks{snapshot: func(c *cluster.Cluster, p msg.Period, snap metrics.Snapshot) {
			chk.check(p, snap, c.MaxTrackedPerManager())
		}})
		if err != nil {
			return err
		}
		plan, c, cal := w.chaos, o.c, o.cal
		chk.recovery(plan, w.gossip.Period, recoveryPeriods)

		res := o.tallyResult
		counts := plan.Counts()
		joined, departed, handoffs := len(c.Joined), len(c.Departed), c.Handoffs()
		planEvents, applied := len(plan.Events), c.ChaosApplied()
		t := &Table{
			Title:   "Soak — churn + " + attack + " + fault plan under standing invariants (backend " + w.backend.String() + ")",
			Columns: []string{"quantity", "value"},
		}
		t.AddRow("population / cohort", F(float64(w.n), 0)+" / "+F(float64(res.Freeriders), 0))
		t.AddRow("joined / departed", F(float64(joined), 0)+" / "+F(float64(departed), 0))
		t.AddRow("fault events applied", F(float64(applied), 0)+" of "+F(float64(planEvents), 0))
		t.AddRow("crash cycles / partitions / bursts",
			F(float64(counts[chaos.Crash]), 0)+" / "+F(float64(counts[chaos.Partition]), 0)+" / "+F(float64(counts[chaos.LossBurst]), 0))
		t.AddRow("skewed clocks", F(float64(len(plan.Skew)), 0))
		t.AddRow("manager handoffs", F(float64(handoffs), 0))
		t.AddRow("cohort expelled", F(float64(res.FreeridersExpelled), 0)+" of "+F(float64(res.Freeriders), 0))
		t.AddRow("honest expelled (live / departed)",
			F(float64(res.HonestExpelled), 0)+" / "+F(float64(res.DepartedExpelled), 0))
		t.AddRow("periods checked", F(float64(chk.periods), 0))
		t.AddRow("max tracked per manager", F(float64(chk.maxTracked), 0))
		t.AddRow("invariant violations", F(float64(chk.violated), 0))
		t.AddRow("goodput", F(float64(res.GoodputBytes), 0)+" B")
		t.AddRow("overhead", Pct(res.Overhead()))
		t.Notes = append(t.Notes,
			"b̃ = "+F(cal.Compensation, 2)+" blame/period and η = "+F(cal.eta, 2)+" calibrated on an honest chaos-free pilot",
			"standing invariants, checked at every score period: counters monotone, sent ≥ recv + dropped per kind, per-manager state bounded by the population, goodput recovering within "+F(float64(recoveryPeriods), 0)+" periods of every heal",
			"fault candidates are honest stayers only: a crash must never be an alternative explanation for a verdict the oracles assert")
		for _, v := range chk.transcript {
			t.Notes = append(t.Notes, "VIOLATION: "+v)
		}
		out.addTable(obs, t)
		out.addMetric("chaos-events", float64(applied))
		out.addMetric("joined", float64(joined))
		out.addMetric("departed", float64(departed))
		out.addMetric("handoffs", float64(handoffs))
		out.addMetric("freeriders-expelled", float64(res.FreeridersExpelled))
		out.addMetric("honest-expelled", float64(res.HonestExpelled))
		out.addMetric("max-tracked-per-manager", float64(chk.maxTracked))
		out.addMetric("goodput-bytes", float64(res.GoodputBytes))
		out.MetricsSnapshots = chk.snaps

		// The standing invariants are the verdict: any per-period violation
		// fails the run, as does a fault plan that is empty or did not fully
		// execute, churn that did not happen, manager state beyond the
		// population ever present, or a stream that delivered nothing.
		out.check("invariant violations", "sanity", count(chk.violated), incl(0), incl(0))
		out.check("fault plan events", "sanity", count(planEvents), incl(1), none)
		out.check("fault events applied", "sanity", count(applied), incl(float64(planEvents)), incl(float64(planEvents)))
		out.check("joined", "sanity", count(joined), incl(1), none)
		out.check("departed", "sanity", count(departed), incl(1), none)
		out.check("max tracked per manager", "sanity", count(chk.maxTracked), none, incl(float64(maxPop)))
		out.check("goodput", "sanity", count(res.GoodputBytes), excl(0), none)
		out.check("metrics snapshots", "sanity", count(len(chk.snaps)), incl(1), none)
		// Detection oracles: honest nodes survive every fault; the freerider
		// cohort does not (cohort expulsion is only asserted for the
		// freeride attack — bad-mouthers are undetectable by construction
		// and stretchers are an audit subject).
		out.check("live honest expelled", "sanity", count(res.HonestExpelled), incl(0), incl(0))
		if attack == "freeride" {
			out.check("freeriders expelled", "sanity", count(res.FreeridersExpelled), incl(float64(res.Freeriders)), incl(float64(res.Freeriders)))
		}
		return nil
	},
}
