package experiment

import (
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
	"lifting/internal/stream"
)

// SoakConfig describes the soak workload: churn plus one adversary cohort
// plus a seeded fault schedule (crashes with restarts, partitions, loss
// bursts, duplication, reordering, clock skew), all running at once against
// a set of standing invariants checked at every score period. Where the
// other cluster experiments each isolate one axis, the soak's subject is
// composition: LiFTinG's §4–§5 guarantees are statistical claims about
// detection under faulty conditions, so the expulsion verdict must survive
// the faults happening *while* the attack runs — and honest nodes that
// merely crashed, rebooted or sat behind a partition must not be expelled
// for it.
type SoakConfig struct {
	// N is the initial population; a tenth of it runs the attack behavior.
	N int
	// Attack selects the adversary cohort's behavior: "freeride" (degree
	// Delta, the default) or the name of a matrix scenario, whose behavior
	// the cohort then runs — "blame-spam" (§5.1 bad-mouthing) and
	// "period-stretch" (§4.1(iv) gossip-period ×2) are the ones the tests soak.
	Attack   string
	Delta    [3]float64
	Duration time.Duration
	Seed     uint64
	// Grace is the minimum tracked age before η applies.
	Grace int
	// Shards is the engine shard count (sim backend only; same semantics as
	// ScaleConfig.Shards).
	Shards int
	// Backend selects the execution backend; the soak runs on both.
	Backend runtime.Kind

	// Joins and Leaves are mid-stream arrivals/departures, spread over the
	// middle half of the run — the same window the fault plan uses.
	Joins, Leaves int

	// Faults is the fault mix chaos.Generate turns into the plan. Soak
	// fills its Seed, Duration and Candidates — the honest non-source nodes
	// that are not scheduled to leave.
	Faults chaos.Config

	// RecoveryPeriods bounds recovery: after every heal-like event
	// (restart, partition heal, loss heal) cumulative goodput must have
	// grown within this many periods.
	RecoveryPeriods int

	// EtaFloor is the threshold's floor: η = −max(16σ, EtaFloor) with σ
	// from an honest chaos-free calibration pilot. 0 means the
	// attack-specific default (6 for blame-spam, whose whole point is
	// wrongful blame pressure on honest scores; 3 otherwise).
	EtaFloor float64
}

// DefaultSoakConfig returns the full soak scenario: 120 nodes, 30 s of
// stream, churn, a 10% freerider cohort and a fault plan touching roughly a
// third of the honest population.
func DefaultSoakConfig() SoakConfig {
	return SoakConfig{
		N:      120,
		Attack: "freeride",
		// Hard freeriding in fanout and propose, full serves — the same
		// self-contained δ profile the scale workload uses (δ3 blame would
		// land on honest receivers and poison the no-honest-expulsion
		// invariant by construction).
		Delta:    [3]float64{0.7, 0.7, 0},
		Duration: 30 * time.Second,
		Seed:     29,
		Grace:    24,
		Shards:   -1,

		Joins:  10,
		Leaves: 10,

		Faults: chaos.Config{
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
		},

		RecoveryPeriods: 16,
	}
}

// QuickSoakConfig shrinks the scenario to CI-smoke size: it must finish in
// well under a minute per backend, wall-clock bound on udp. Three
// knobs differ from a plain shrink, all for the wall-clock backend where
// scheduler jitter rides on top of the fault plan: the window is 25 s (a
// marginal freerider's Total/r needs the extra periods to converge past η
// when blame messages are lost in the burst), η gets an absolute floor of
// 8 (the longer calibration pilot measures a smaller σ, which would
// otherwise move η *up* toward the honest fault transients it must
// clear), and the cohort freerides harder (δ = 0.85 vs the full run's
// 0.7) so its blame-rate asymptote sits well below that floor even when
// the burst eats a fraction of the blame messages. At N = 48 the honest
// and freerider score distributions are close enough that a single
// jittery run can smear δ = 0.7 across an η safe for honest transients;
// the full-size run keeps the paper-faithful profile.
func QuickSoakConfig() SoakConfig {
	cfg := DefaultSoakConfig()
	cfg.N = 48
	cfg.Duration = 25 * time.Second
	cfg.EtaFloor = 8
	cfg.Delta = [3]float64{0.85, 0.85, 0}
	cfg.Grace = 16
	cfg.Joins, cfg.Leaves = 4, 4
	cfg.Faults.Crashes = 2
	cfg.Faults.Outage = 750 * time.Millisecond
	cfg.Faults.Partitions = 1
	cfg.Faults.PartitionSize = 5
	cfg.Faults.LossBursts = 1
	cfg.Faults.BurstSize = 5
	cfg.Faults.SkewCount = 3
	cfg.RecoveryPeriods = 12
	return cfg
}

// SoakResult aggregates one soak run.
type SoakResult struct {
	N int
	// The run's tally: the cohort size and the expulsion split (cohort, live
	// honest, departed-then-expelled), goodput and overhead.
	tallyResult
	Joined, Departed int
	Handoffs         int
	// PlanEvents and ChaosApplied pin schedule execution: every generated
	// fault event must actually have fired.
	PlanEvents   int
	ChaosApplied int
	// CrashCycles/PartitionEpisodes/LossBurstEpisodes/SkewedNodes describe
	// the generated plan (each episode is an apply+heal event pair).
	CrashCycles       int
	PartitionEpisodes int
	LossBurstEpisodes int
	SkewedNodes       int
	// PeriodsChecked is how many period snapshots the standing invariants
	// ran against; MaxTracked is the largest per-manager tracked-target
	// count ever observed.
	PeriodsChecked int
	MaxTracked     int
	// Violations lists every standing-invariant violation, in period order.
	Violations []string
	// Compensation and Eta are the calibrated b̃ and threshold.
	Compensation, Eta float64
	// Snapshots are the periodic metrics snapshots (every snapshotEvery
	// periods) — the JSON document's metrics_snapshots section.
	Snapshots []metrics.Snapshot
}

// etaFloor returns the configured or attack-specific threshold floor.
func (cfg SoakConfig) etaFloor() float64 {
	if cfg.EtaFloor > 0 {
		return cfg.EtaFloor
	}
	if cfg.Attack == "blame-spam" {
		return 6
	}
	return 3
}

// cohort resolves the attack name to the adversary cohort: "freeride" is
// the soak's own degree Delta, every other name a row of the matrix's
// Scenarios table.
func (cfg SoakConfig) cohort() (cohort, error) {
	behavior := degree(cfg.Delta[0], cfg.Delta[1], cfg.Delta[2])
	if cfg.Attack != "" && cfg.Attack != "freeride" {
		i := slices.Index(ScenarioNames(), cfg.Attack)
		if i < 0 {
			return cohort{}, fmt.Errorf("soak: unknown attack %q (want freeride or a matrix scenario: %s)",
				cfg.Attack, strings.Join(ScenarioNames(), ", "))
		}
		behavior = Scenarios()[i].Behavior
	}
	return cohortOf(cfg.N, 0.10, behavior), nil
}

// soakOptions assembles the cluster options (threshold fields are filled in
// after calibration).
func (cfg SoakConfig) soakOptions(co cohort) cluster.Options {
	return cluster.Options{
		N:       cfg.N,
		Seed:    cfg.Seed,
		Backend: cfg.Backend,
		Shards:  cfg.Shards,
		Gossip:  gossip.Config{F: 7, Period: 250 * time.Millisecond, HistoryPeriods: 50},
		Core:    core.Config{Pdcc: 1, Gamma: 8},
		// M = 12 managers per node; blames and score reads travel as
		// messages so the crash→restart manager handoff is actually
		// exercised.
		Rep:         reputation.Config{M: 12, GracePeriods: cfg.Grace},
		Stream:      stream.Config{BitrateBps: 674_000, ChunkPayload: 1316},
		NetDefaults: net.Uniform(0.01, 5*time.Millisecond),
		LiFTinG:     true,
		BlameMode:   cluster.BlameMessages,
		BehaviorFor: co.behaviorFor(),
	}
}

// soakMaxViolations caps the violation transcript: a systemic breakage
// would otherwise flood the result with one line per period per kind.
const soakMaxViolations = 24

// soakChecker holds the standing-invariant state checked at every period
// snapshot: counter monotonicity, sent ≥ recv + dropped conservation,
// bounded per-manager reputation state, and the per-period goodput history
// the post-run recovery check reads.
type soakChecker struct {
	maxPop     int
	prevKinds  []metrics.KindCount
	prevSnap   metrics.Snapshot
	havePrev   bool
	goodput    map[msg.Period]uint64
	last       msg.Period
	periods    int
	maxTracked int
	truncated  bool
	violations []string
	snaps      []metrics.Snapshot
}

func newSoakChecker(maxPop int) *soakChecker {
	return &soakChecker{maxPop: maxPop, goodput: make(map[msg.Period]uint64)}
}

func (k *soakChecker) fail(format string, args ...any) {
	if len(k.violations) >= soakMaxViolations {
		if !k.truncated {
			k.truncated = true
			k.violations = append(k.violations, "… further violations truncated")
		}
		return
	}
	k.violations = append(k.violations, fmt.Sprintf(format, args...))
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
	if k.havePrev {
		// Monotonicity, iterated in the previous snapshot's (deterministic)
		// kind order so a violation transcript is stable too.
		for _, pv := range k.prevKinds {
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
	k.prevKinds = snap.Kinds
	k.prevSnap = snap
	k.havePrev = true
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

// Soak runs the soak workload: calibrate a threshold on an honest
// chaos-free pilot, then stream under churn, the configured attack and the
// generated fault plan, with the standing invariants checked at every score
// period. Cancelling ctx aborts the run.
func Soak(ctx context.Context, cfg SoakConfig) (*Table, *SoakResult, error) {
	co, err := cfg.cohort()
	if err != nil {
		return nil, nil, err
	}

	// Draw the departure set before generating the fault plan: a node that
	// leaves voluntarily cannot also crash or sit in a partition minority,
	// so the plan's candidates are the honest stayers. The adversary cohort
	// and the source stay out too — their fates are what the oracles
	// assert, so a fault must never be an alternative explanation.
	leavers := co.drawLeavers(rng.New(cfg.Seed).Derive("soak-churn"), cfg.Leaves)
	candidates := make([]msg.NodeID, 0, int(co.first())-1-len(leavers))
	for id := msg.NodeID(1); id < co.first(); id++ {
		if !slices.Contains(leavers, id) {
			candidates = append(candidates, id)
		}
	}
	faults := cfg.Faults
	faults.Seed, faults.Duration, faults.Candidates = cfg.Seed, cfg.Duration, candidates
	plan := chaos.Generate(faults)

	// Calibrate on the clean configuration: b̃ and σ describe honest
	// behavior on the healthy network; the faults are what the threshold
	// must then tolerate. 16σ: a 25% correlated loss burst costs a victim
	// ≈10σ of transient blame before it amortizes (blame grows
	// superlinearly with loss), while δ = 0.7 freeriders sit several times
	// deeper by grace expiry.
	opts := cfg.soakOptions(co)
	cal, eta, err := calibrate(ctx, opts, cfg.Duration, 16, cfg.etaFloor())
	if err != nil {
		return nil, nil, err
	}
	opts.Chaos = plan
	opts.Rep.Compensation = cal.Compensation
	opts.Rep.Eta = eta
	opts.ExpelOnDetection = true

	chk := newSoakChecker(cfg.N + cfg.Joins)
	var c *cluster.Cluster
	opts.OnPeriodSnapshot = func(p msg.Period, snap metrics.Snapshot) {
		chk.check(p, snap, c.MaxTrackedPerManager())
	}
	// Churn rides the same middle-half window as the fault plan: the soak's
	// point is everything at once.
	c = launch(opts, cfg.Duration, nil)
	scheduleChurn(c, cfg.Duration, cfg.Joins, leavers)
	if err := advance(ctx, c, nil, cfg.Duration+2*opts.Gossip.Period); err != nil {
		return nil, nil, err
	}
	chk.recovery(plan, opts.Gossip.Period, cfg.RecoveryPeriods)

	counts := plan.Counts()
	res := &SoakResult{
		N:                 cfg.N,
		tallyResult:       tally(c, co),
		Joined:            len(c.Joined),
		Departed:          len(c.Departed),
		Handoffs:          c.Handoffs(),
		PlanEvents:        len(plan.Events),
		ChaosApplied:      c.ChaosApplied(),
		CrashCycles:       counts[chaos.Crash],
		PartitionEpisodes: counts[chaos.Partition],
		LossBurstEpisodes: counts[chaos.LossBurst],
		SkewedNodes:       len(plan.Skew),
		PeriodsChecked:    chk.periods,
		MaxTracked:        chk.maxTracked,
		Violations:        chk.violations,
		Compensation:      cal.Compensation,
		Eta:               eta,
		Snapshots:         chk.snaps,
	}

	t := &Table{
		Title:   "Soak — churn + " + cfg.Attack + " + fault plan under standing invariants (backend " + cfg.Backend.String() + ")",
		Columns: []string{"quantity", "value"},
	}
	t.AddRow("population / cohort", F(float64(cfg.N), 0)+" / "+F(float64(res.Freeriders), 0))
	t.AddRow("joined / departed", F(float64(res.Joined), 0)+" / "+F(float64(res.Departed), 0))
	t.AddRow("fault events applied", F(float64(res.ChaosApplied), 0)+" of "+F(float64(res.PlanEvents), 0))
	t.AddRow("crash cycles / partitions / bursts",
		F(float64(res.CrashCycles), 0)+" / "+F(float64(res.PartitionEpisodes), 0)+" / "+F(float64(res.LossBurstEpisodes), 0))
	t.AddRow("skewed clocks", F(float64(res.SkewedNodes), 0))
	t.AddRow("manager handoffs", F(float64(res.Handoffs), 0))
	t.AddRow("cohort expelled", F(float64(res.FreeridersExpelled), 0)+" of "+F(float64(res.Freeriders), 0))
	t.AddRow("honest expelled (live / departed)",
		F(float64(res.HonestExpelled), 0)+" / "+F(float64(res.DepartedExpelled), 0))
	t.AddRow("periods checked", F(float64(res.PeriodsChecked), 0))
	t.AddRow("max tracked per manager", F(float64(res.MaxTracked), 0))
	t.AddRow("invariant violations", F(float64(len(res.Violations)), 0))
	t.AddRow("goodput", F(float64(res.GoodputBytes), 0)+" B")
	t.AddRow("overhead", Pct(res.Overhead()))
	t.Notes = append(t.Notes,
		"b̃ = "+F(cal.Compensation, 2)+" blame/period and η = "+F(eta, 2)+" calibrated on an honest chaos-free pilot",
		"standing invariants, checked at every score period: counters monotone, sent ≥ recv + dropped per kind, per-manager state bounded by the population, goodput recovering within "+F(float64(cfg.RecoveryPeriods), 0)+" periods of every heal",
		"fault candidates are honest stayers only: a crash must never be an alternative explanation for a verdict the oracles assert")
	for _, v := range res.Violations {
		t.Notes = append(t.Notes, "VIOLATION: "+v)
	}
	return t, res, nil
}
