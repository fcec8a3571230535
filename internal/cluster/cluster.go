// Package cluster assembles complete LiFTinG systems: gossip nodes with
// their verifiers, the reputation substrate, freerider behaviors, a stream
// source and playout tracking — everything the experiments, integration
// tests and examples need to run end-to-end scenarios.
//
// Assembly is written against the runtime.Runtime seam, so the same wiring
// executes under the deterministic discrete-event engine (Options.Backend =
// runtime.KindSim, the default) or over real UDP sockets on loopback
// (runtime.KindUDP, one socket per node, wall-clock time). Scenarios —
// quickstart, collusion, PlanetLab heterogeneity, churn — are therefore
// written once and run on either backend. A deployment where each node is
// its own OS process runs one Cluster per process, hosting one node
// (Options.Deployment); every node of every cluster is built by the one
// recipe in assemble.go.
package cluster

import (
	"context"
	"maps"
	gort "runtime"
	"slices"
	"sync"
	"time"

	"lifting/internal/analysis"
	"lifting/internal/chaos"
	"lifting/internal/content"
	"lifting/internal/core"
	"lifting/internal/gossip"
	"lifting/internal/membership"
	"lifting/internal/metrics"
	"lifting/internal/msg"
	"lifting/internal/net"
	"lifting/internal/reputation"
	"lifting/internal/rng"
	"lifting/internal/runtime"
	"lifting/internal/sim"
	"lifting/internal/stats"
	"lifting/internal/stream"
	"lifting/internal/transport"
)

// BlameMode is read by nothing: every node's reputation.Client batches its
// blames into messages to the target's M managers, as deployed on PlanetLab
// (§7). The type, its one value and Options.BlameMode stay while
// benchmark/cluster.go sets them.
type BlameMode int

// BlameMessages is the one blame route, by message to the M managers.
const BlameMessages BlameMode = 1

// Options configures a cluster.
type Options struct {
	// N is the number of nodes (ids 0..N-1; node 0 is the stream source
	// and is always honest). Churn may add nodes beyond N mid-run.
	N int
	// Seed roots all randomness.
	Seed uint64
	// Backend selects the execution backend: the deterministic
	// discrete-event engine (runtime.KindSim, the zero value) or the UDP
	// socket transport in single-process-many-sockets mode
	// (runtime.KindUDP).
	Backend runtime.Kind
	// Shards is how many shards (goroutines) the discrete-event engine
	// runs on: 0 or 1 = one, -1 = one per CPU, n = n. It is an execution
	// knob only — seeded results are byte-identical for every value on any
	// machine. Configurations that cannot run concurrently (ConditionsFor
	// overrides, zero base latency) always get one shard; see
	// shardCountAndWindow.
	Shards int
	// Gossip is the dissemination configuration. A zero ChunkPayload is
	// Stream.ChunkPayload: serves carry the stream's chunks.
	Gossip gossip.Config
	// Core is LiFTinG's configuration. Used when LiFTinG is enabled. Zero
	// F, Period and HistoryPeriods are Gossip's: the verifier checks the
	// protocol the node runs. Population defaults to N.
	Core core.Config
	// Rep configures the reputation substrate. A zero Rep.Compensation is
	// derived from ExpectedLoss, the fanout, |R| (gossip.NominalRequest) and
	// Core.Pdcc via the analysis (CompensationFor: Equation 5 at pdcc = 1,
	// the witness term scaled by pdcc below it).
	Rep reputation.Config
	// Stream describes the broadcast content: serves carry its payload
	// bytes and receivers verify their hashes. It must be valid.
	Stream stream.Config
	// NetDefaults is the default connection quality.
	NetDefaults net.Conditions
	// ConditionsFor, if non-nil, overrides per-node conditions (the
	// PlanetLab heterogeneity of §7).
	ConditionsFor func(id msg.NodeID) (net.Conditions, bool)
	// LiFTinG enables the verification machinery.
	LiFTinG bool
	// BlameMode is read by nothing (see the type).
	BlameMode BlameMode
	// BehaviorFor, if non-nil, supplies per-node behaviors (freeriders).
	// Returning nil means honest. Node 0 (the source) is always honest.
	BehaviorFor func(id msg.NodeID, dir *membership.Directory, rand *rng.Stream) gossip.Behavior
	// ExpelOnDetection removes nodes whose score crosses η (or who fail an
	// audit): they are stopped, marked down, and leave the membership.
	ExpelOnDetection bool
	// ExpectedLoss is the pl used for compensation (defaults to
	// NetDefaults.LossIn).
	ExpectedLoss float64
	// TrackPlayout enables per-node playout recording for health curves.
	TrackPlayout bool
	// StoreCapacity is the per-node chunk store capacity in chunks (0 =
	// sized from the stream rate and gossip period via
	// content.StoreCapacityFor).
	//lint:allow no-orphan TestShardsZeroEqualsOne shrinks the stores to force misses
	StoreCapacity int
	// Chaos, if non-nil, layers a deterministic fault schedule onto the
	// run: crash→restart cycles with manager score handoff, partitions,
	// correlated loss bursts, standing duplication/reordering and per-node
	// clock skew. Events apply from harness timers (the engine's global
	// phase), and the plan itself is pure data, so a run stays
	// byte-identical across shard counts. Keep the stream source out of
	// the plan's candidates.
	Chaos *chaos.Plan
	// OnPeriodSnapshot, if non-nil, receives a deterministic metrics
	// snapshot at the start of every score period, before the period's
	// flushes and expulsion checks. Under the sim backend it fires in the
	// global phase with every shard parked at the barrier, so the
	// counts are byte-identical across shard and worker counts; the
	// callback receives a value copy and cannot perturb the run.
	OnPeriodSnapshot func(p msg.Period, s metrics.Snapshot)
	// Deployment, if non-nil, makes the cluster one process of a deployment:
	// it hosts node Deployment.Self only, on the caller's runtime, and
	// reaches the rest of the membership 0..N-1 through that runtime's
	// network. Backend and Shards are then unused, and LiFTinG must be on.
	// NetDefaults, ConditionsFor and Chaos apply as in process: New pushes
	// every member's conditions onto the caller's runtime, and the plan's
	// events and Self's clock skew replay on it.
	Deployment *Deployment
}

// Deployment is where a one-node cluster runs. Every process of a deployment
// builds the same Options — the manager assignment, the per-node random
// streams and the stream bytes derive from N, Seed and the protocol
// configuration — and differs only here.
type Deployment struct {
	// Self is the node this process hosts.
	Self msg.NodeID
	// Runtime runs Self: typically a transport runtime with Self's socket
	// bound and the other members in its address book. The cluster asks it
	// for Self's context and execution only — a transport runtime binds a
	// socket for any id it is asked about.
	Runtime runtime.Runtime
	// Collector, if non-nil, is the cluster's collector: pass the one the
	// runtime counts wire traffic into.
	Collector *metrics.Collector
	// OnExpel, if non-nil, observes each expulsion verdict Self's manager
	// decides or learns from another manager's Expel message.
	OnExpel func(target msg.NodeID, reason msg.BlameReason)
}

// Cluster is an assembled system.
type Cluster struct {
	Opts Options
	// RT is the execution backend everything is wired to.
	RT runtime.Runtime
	// Engine exposes the discrete-event internals; nil under a wall-clock
	// backend.
	Engine    *sim.Engine
	Dir       *membership.Directory
	Collector *metrics.Collector
	// Content is the stream's canonical payload source. Its memoized slices
	// are shared by every node's store, so large populations hold one copy
	// of the stream.
	Content *content.Source
	Nodes   map[msg.NodeID]*gossip.Node
	// Managers holds the managers of the members this cluster hosts, one
	// per LiFTinG node (empty with LiFTinG off). A removal takes the node's
	// manager out; a restart builds a fresh one.
	Managers map[msg.NodeID]*reputation.Manager
	Playouts map[msg.NodeID]*stream.Playout
	// Expelled records when each node was expelled (virtual time).
	Expelled map[msg.NodeID]time.Duration
	// Joined records when each churn arrival entered the system.
	Joined map[msg.NodeID]time.Duration
	// Departed records when each node voluntarily left (churn).
	Departed map[msg.NodeID]time.Duration
	// Crashed records when each node last crashed (fault plane); Restarted
	// when it last came back.
	Crashed   map[msg.NodeID]time.Duration
	Restarted map[msg.NodeID]time.Duration
	// Freeriders records which nodes got a non-honest behavior.
	Freeriders map[msg.NodeID]bool

	// mu guards the mutable maps above plus period/nextTick/duties/handoffs:
	// under a wall-clock backend churn, expulsion and ticks run on separate
	// goroutines.
	mu sync.Mutex

	// reader is the deployment node's over-the-wire score reader; nil
	// without a Deployment.
	reader *reputation.Reader

	root          *rng.Stream
	verified      *content.Store // the nodes' shared verified-once table; nil off the sim backend
	sends         []msg.Sends    // one set of send blocks per engine shard; nil off the sim backend
	auditor       *core.Auditor
	period        msg.Period
	ticker        func()                     // the harness tick's callback, made once by newCluster
	nextTick      time.Duration              // when the harness tick of period+1 runs
	duties        map[msg.NodeID]*periodDuty // each hosted LiFTinG node's period duty, its latest build's
	tickIDs       []msg.NodeID               // the tick's scratch: manager ids in order...
	tickMgrs      []*reputation.Manager      // ...and their managers
	tickSends     msg.Sends                  // ...and the set they gather verdicts in and carve Expels from (Manager.Tick)
	nextID        msg.NodeID
	handoffs      int
	rebalance     bool // a manager rebalance is scheduled
	rebalanceFull bool // ...and must rescan every assignment (a join)

	// Rebalance bookkeeping: the manager set last applied per target (a
	// Directory.Managers slice, shared and read-only), and the nodes that
	// left or (re)joined since the last rebalance. A removal-only rebalance
	// hands off just the targets whose applied set names a changed node.
	lastMgrs map[msg.NodeID][]msg.NodeID
	changed  map[msg.NodeID]bool

	// Fault-plane state (guarded by mu): the plan's standing faults, the
	// nodes this harness has torn down for a crash and not yet re-admitted,
	// and how many plan events have been applied.
	faults       *chaos.Overlay
	crashedNow   map[msg.NodeID]bool
	chaosApplied int
}

// periodDuty is a LiFTinG node's period work, run on the node's own execution
// context: at every score-period boundary, after that instant's harness tick,
// it flushes the node's blame client when the period closes a batch
// (flushDue), then re-arms one period later, until the node stops. It
// re-arms with a fixed After, never with the time left to a boundary:
// sim.Skewed scales After and not Now.
type periodDuty struct {
	ctx    sim.Context // the node's unskewed context
	node   *gossip.Node
	client *reputation.Client
	rep    *reputation.Config
	tick   time.Duration // the period clock's period (tickPeriod)
	p      msg.Period    // the period whose boundary it fires at next
	fire   func()        // run, made once: a period's re-arm allocates nothing
}

func (d *periodDuty) run() {
	if d.node.Stopped() {
		return
	}
	if flushDue(*d.rep, d.p) {
		d.client.Flush()
	}
	d.p++
	d.ctx.After(d.tick, d.fire)
}

// auditorProxy routes audit responses to the cluster's auditor once it
// exists (the auditor is created lazily, after the nodes).
type auditorProxy struct{ c *Cluster }

func (p auditorProxy) HandleAux(from msg.NodeID, m msg.Message) bool {
	if p.c.auditor == nil {
		return false
	}
	return p.c.auditor.HandleAux(from, m)
}

// New assembles a cluster. It panics on invalid configuration, N < 2 or an
// invalid Stream among it (experiments are code, not user input).
func New(opts Options) *Cluster { return newCluster(opts, true) }

// newCluster is New with the sim backend's verified-once table optional: the
// test that shows no run can see the table builds the same cluster without.
//
//lint:allow one-value TestShardsZeroEqualsOne builds every cluster again without the table
func newCluster(opts Options, verifyOnce bool) *Cluster {
	if opts.N < 2 {
		panic("cluster: need at least 2 nodes")
	}
	opts.setDefaults()

	c := &Cluster{
		Opts:       opts,
		Dir:        membership.Sequential(opts.N),
		Collector:  metrics.NewCollector(),
		Nodes:      make(map[msg.NodeID]*gossip.Node, opts.N),
		Managers:   make(map[msg.NodeID]*reputation.Manager, opts.N),
		Playouts:   make(map[msg.NodeID]*stream.Playout, opts.N),
		Expelled:   make(map[msg.NodeID]time.Duration),
		Joined:     make(map[msg.NodeID]time.Duration),
		Departed:   make(map[msg.NodeID]time.Duration),
		Crashed:    make(map[msg.NodeID]time.Duration),
		Restarted:  make(map[msg.NodeID]time.Duration),
		Freeriders: make(map[msg.NodeID]bool),
		duties:     make(map[msg.NodeID]*periodDuty),
		root:       rng.New(opts.Seed),
		nextID:     msg.NodeID(opts.N),
		lastMgrs:   make(map[msg.NodeID][]msg.NodeID),
		changed:    make(map[msg.NodeID]bool),

		faults:     chaos.NewOverlay(),
		crashedNow: make(map[msg.NodeID]bool),
	}
	c.Content = contentSource(c.root, opts.Stream)
	c.ticker = func() {
		c.tick(c.Period() + 1)
		c.scheduleTick()
	}

	switch {
	case opts.Deployment != nil:
		if !opts.LiFTinG {
			panic("cluster: a Deployment runs LiFTinG")
		}
		c.RT = opts.Deployment.Runtime
		if opts.Deployment.Collector != nil {
			c.Collector = opts.Deployment.Collector
		}
	case opts.Backend == runtime.KindSim:
		engine := sim.NewSharded(c.shardCountAndWindow())
		c.Engine = engine
		c.RT = runtime.NewSim(engine, net.NewSimNet(engine, c.root.Derive("net"), c.Collector, opts.NetDefaults))
		c.sends = make([]msg.Sends, engine.ShardCount())
		if verifyOnce {
			// The one runtime that delivers payloads by reference: every
			// node is handed the source's own slices, so one full hash per
			// slice holds for all of them (DESIGN.md "Verified once").
			c.verified = content.NewStore(c.Opts.storeCapacity())
		}
	case opts.Backend == runtime.KindUDP:
		c.RT = transport.New(transport.Options{
			Seed:      c.root.Derive("net").Seed(),
			Collector: c.Collector,
			Defaults:  opts.NetDefaults,
		})
	default:
		panic("cluster: Options.Backend is neither runtime.KindSim nor runtime.KindUDP")
	}

	for i := 0; i < opts.N; i++ {
		if c.hosts(msg.NodeID(i)) {
			c.build(msg.NodeID(i))
		}
	}

	// A backend New built starts from NetDefaults and needs only the
	// overrides; a deployment's runtime is the caller's, so every member's
	// conditions go onto it.
	for i := 0; i < opts.N; i++ {
		if cond, override := opts.conditions(msg.NodeID(i)); override || opts.Deployment != nil {
			c.RT.SetConditions(msg.NodeID(i), cond)
		}
	}

	// Pre-register every node with its managers at period 0 so r counts
	// time in the system, not time since first blame. A deployment's one
	// manager tracks the members assigned to it.
	if opts.LiFTinG {
		for i := 0; i < opts.N; i++ {
			c.trackAtManagers(msg.NodeID(i), 0)
		}
	}

	return c
}

// hosts reports whether node id runs in this cluster: every node in process,
// Self alone in a deployment.
func (c *Cluster) hosts(id msg.NodeID) bool {
	d := c.Opts.Deployment
	return d == nil || d.Self == id
}

// build assembles node id from the shared recipe with the cluster's wiring
// — shared directory and collector, manager duty whose expulsions are routed
// through the harness — and publishes its parts. The caller registers it
// with its managers and sets per-node conditions.
func (c *Cluster) build(id msg.NodeID) {
	opts := &c.Opts
	w := wiring{
		id:        id,
		rt:        c.RT,
		dir:       c.Dir,
		root:      c.root,
		collector: c.Collector,
		verified:  c.verified,
		sends:     c.sendsFor(id),
	}
	if opts.BehaviorFor != nil && id != 0 {
		w.behavior = func(r *rng.Stream) gossip.Behavior { return opts.BehaviorFor(id, c.Dir, r) }
	}
	if opts.Chaos != nil {
		w.skew = opts.Chaos.SkewFactor(id)
	}
	w.reader = opts.Deployment != nil
	if opts.TrackPlayout {
		w.playout = stream.NewPlayout(opts.Stream)
	}
	// The expulsion callback carries the hosting manager's id: under the sim
	// backend it fires inside a lookahead window, and the resulting
	// membership mutation must be deferred to the global phase keyed by the
	// node that triggered it.
	w.onExpel = func(target msg.NodeID, reason msg.BlameReason) {
		if d := opts.Deployment; d != nil && d.OnExpel != nil {
			d.OnExpel(target, reason)
		}
		c.expelFrom(id, target)
	}
	if id == 0 {
		w.extraAux = auditorProxy{c}
	}
	a := assemble(opts, w)

	c.mu.Lock()
	if a.freerider {
		c.Freeriders[id] = true
	}
	c.Nodes[id] = a.node
	if a.manager != nil {
		c.Managers[id] = a.manager
		c.tickSends.Wire()
	}
	if a.client != nil {
		d := &periodDuty{ctx: c.RT.Context(id), node: a.node, client: a.client, rep: &opts.Rep, tick: c.tickPeriod()}
		d.fire = d.run
		c.duties[id] = d
	}
	if a.reader != nil {
		c.reader = a.reader
	}
	if w.playout != nil {
		c.Playouts[id] = w.playout
	}
	c.mu.Unlock()
}

// sendsFor returns the set of send blocks node id carves what it sends from,
// wired to it (msg.Sends.Wire sizes the set's blocks by the nodes that share
// it): its shard's on the sim, where a shard runs all its nodes on one
// goroutine; a set of its own on udp, where only the node's own callbacks
// are serialized with one another.
func (c *Cluster) sendsFor(id msg.NodeID) *msg.Sends {
	s := new(msg.Sends)
	if c.Engine != nil {
		s = &c.sends[c.Engine.ShardOf(int(id))]
	}
	s.Wire()
	return s
}

// trackAtManagers starts tracking id's score on its hosted managers as of
// period p.
func (c *Cluster) trackAtManagers(id msg.NodeID, p msg.Period) {
	set := c.Dir.Managers(id, c.Opts.Rep.M)
	c.mu.Lock()
	c.lastMgrs[id] = set
	mgrs := make([]*reputation.Manager, 0, len(set))
	for _, m := range set {
		if mgr, ok := c.Managers[m]; ok {
			mgrs = append(mgrs, mgr)
		}
	}
	c.mu.Unlock()
	for _, mgr := range mgrs {
		mgr.Track(id, p)
	}
}

// shardCountAndWindow returns the shard count (>= 1) and lookahead window
// the discrete-event engine runs with. The window is the default base
// latency, a lower bound on every cross-node delivery delay. More than one
// shard requires that bound to hold and be positive (no per-node condition
// overrides). Every other configuration runs the same layout on one shard,
// where no delivery crosses shards and the window (the gossip period, absent
// a latency) only paces the global phase.
func (c *Cluster) shardCountAndWindow() (int, time.Duration) {
	o := &c.Opts
	window := o.NetDefaults.LatencyBase
	concurrent := window > 0 && o.ConditionsFor == nil
	if window <= 0 {
		window = o.Gossip.Period
	}
	switch {
	case !concurrent || o.Shards == 0:
		return 1, window
	case o.Shards < 0:
		return max(1, gort.GOMAXPROCS(0)), window
	}
	return o.Shards, window
}

// ShardCount reports how many shards the engine runs (0 on a non-sim
// backend).
func (c *Cluster) ShardCount() int {
	if c.Engine == nil {
		return 0
	}
	return c.Engine.ShardCount()
}

// expelFrom expels target on behalf of owner. Inside an engine window the
// membership mutation is deferred to the global phase, keyed by owner so the
// expulsion order is shard-count-independent; everywhere else it applies
// immediately.
func (c *Cluster) expelFrom(owner msg.NodeID, target msg.NodeID) {
	if c.Engine != nil && c.Engine.InWindow() {
		c.Engine.DeferGlobal(int(owner), func() { c.expel(target) })
		return
	}
	c.expel(target)
}

// CompensationFor returns the per-period compensation b̃ for the given loss,
// fanout, |R| and pdcc. Direct-verification wrongful blames and the
// broken-chain blame (the (a)-term of Equation 3) accrue always; witness
// blames only accrue when the verifier polls, i.e. a fraction pdcc of the
// time (§6.2 analyzes pdcc = 1, where this reduces to Equation 5).
func CompensationFor(loss float64, f, r int, pdcc float64) float64 {
	p := analysis.Params{F: f, R: r, Loss: loss}
	return p.DirectVerificationBlame() + p.CrossCheckBlameChain() + pdcc*p.CrossCheckBlameWitness()
}

// Calibration is the result of an honest pilot run: the empirical wrongful
// blame rate and its spread. The analysis's b̃ (Equation 5) assumes the
// saturated workload of §6.2 — every node receiving f proposals per period,
// each answered by an |R|-chunk request. A real chunk workload is lighter
// (each chunk is served to each node once), so deployments estimate b̃ from
// observed traffic; Calibrate plays that role here.
type Calibration struct {
	// Compensation is the measured mean wrongful blame per node per period
	// (the empirical b̃).
	Compensation float64
	// ScoreStd is the standard deviation of the resulting normalized
	// honest scores; η is typically set at a few multiples of it (the
	// paper's η = −9.75 is ≈ 2.7·σ(s) at its parameters).
	ScoreStd float64
}

// Calibrate runs an all-honest pilot with the given options and returns the
// empirical compensation and honest score spread. The pilot always runs on
// the discrete-event backend and on one shard (it is a Monte-Carlo
// measurement, not an integration test) and owns what "honest and clean"
// means: it ignores BehaviorFor, expulsion, playout tracking, the fault plan
// and the caller's snapshot hook, so a caller hands it the options of the run
// it is about to police as they are. No blame batch falls due inside it: every
// client still holds each blame it issued when the pilot reads it, so a
// node's blame is what the clients hold against it, summed in build order
// (heldBlame) — whatever the managers would have made of it, and with no
// Blame on the wire. It discards the first 25% of the run as warmup (the
// dissemination ramp-up produces atypical blame). Cancelling ctx aborts the
// pilot and returns ctx.Err() with a zero Calibration.
func Calibrate(ctx context.Context, opts Options, duration time.Duration) (Calibration, error) {
	pilot := pilotOptions(opts, duration)
	c := New(pilot)
	c.Start()
	c.StartStream(duration)

	if err := c.RunContext(ctx, duration/4); err != nil {
		c.Close()
		return Calibration{}, err
	}
	warmupPeriod := int(c.Period())
	atWarmup := c.heldBlame()
	if err := c.RunContext(ctx, duration+pilot.Gossip.Period); err != nil {
		c.Close()
		return Calibration{}, err
	}

	periods := int(c.Period()) - warmupPeriod
	if periods < 1 {
		periods = 1
	}
	var blame stats.Moments
	for i, total := range c.heldBlame()[1:] { // skip the source: it never requests
		blame.Add((total - atWarmup[i+1]) / float64(periods))
	}
	// With compensation set to the measured mean, s = comp − total/r, so
	// σ(s) equals the spread of per-period blame rates.
	return Calibration{Compensation: blame.Mean(), ScoreStd: blame.Std()}, nil
}

// pilotOptions are the options of Calibrate's pilot over a stream of the
// given length: the caller's, honest and clean, on one sim shard, with a
// blame batch that closes past the pilot's last period (it runs one gossip
// period past the stream).
func pilotOptions(opts Options, duration time.Duration) Options {
	pilot := opts
	pilot.Backend = runtime.KindSim
	pilot.Shards = 1
	pilot.BehaviorFor = nil
	pilot.ExpelOnDetection = false
	pilot.TrackPlayout = false
	pilot.Chaos = nil
	pilot.OnPeriodSnapshot = nil
	pilot.Seed = opts.Seed ^ 0x5afec0de
	pilot.Rep.FlushEvery = int(duration/opts.Gossip.Period) + 2
	return pilot
}

// heldBlame returns, indexed by node id over the initial population, the
// blame the clients of that population hold unflushed against each node:
// for each node, the sum over the clients in id order — their build order —
// so the same for every shard count.
func (c *Cluster) heldBlame() []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]float64, c.Opts.N)
	for id := range msg.NodeID(c.Opts.N) {
		if d := c.duties[id]; d != nil { // none with LiFTinG off
			for i := range out {
				out[i] += d.client.Pending(msg.NodeID(i))
			}
		}
	}
	return out
}

// Start launches the period clock and every hosted node (in id order, for
// reproducibility), each inside its own serialization domain: on a socket,
// its receive loop is already running.
func (c *Cluster) Start() {
	c.scheduleTick()
	for i := 0; i < c.Opts.N; i++ {
		c.startNode(msg.NodeID(i))
	}
	c.startChaos()
}

// startNode starts hosted node id and arms its period duty for the next
// boundary of the period clock, where it joins the period count.
func (c *Cluster) startNode(id msg.NodeID) {
	c.mu.Lock()
	node, d := c.Nodes[id], c.duties[id]
	at := c.nextTick
	if d != nil {
		d.p = c.period + 1
	}
	c.mu.Unlock()
	if node == nil {
		return
	}
	c.RT.Exec(id, node.Starter())
	if d != nil {
		d.ctx.After(at-c.RT.Now(), d.fire)
	}
}

// tickPeriod is the period of the score-period clock. A deployment's runs at
// its node's clock rate (Chaos.SkewFactor(Self)): periods only feed the r in
// score = b̃ − blame/r, so the processes' clocks must agree in rate, not in
// phase — which a skewed clock violates, and the daemon's drift gauge
// watches. An in-process cluster's one period clock stays true.
func (c *Cluster) tickPeriod() time.Duration {
	tick := c.Opts.Gossip.Period
	if d := c.Opts.Deployment; d != nil && c.Opts.Chaos != nil {
		tick = time.Duration(float64(tick) * c.Opts.Chaos.SkewFactor(d.Self))
	}
	return tick
}

// scheduleTick queues the harness tick of the next score period, a
// tickPeriod from now. It notes when that tick runs after queueing it, so a
// duty armed for that instant runs after it on either runtime.
func (c *Cluster) scheduleTick() {
	tick := c.tickPeriod()
	c.RT.After(tick, c.ticker)
	c.mu.Lock()
	c.nextTick = c.RT.Now() + tick
	c.mu.Unlock()
}

// tick runs one score-period advance on the harness: the period counter, the
// snapshot, and the tick of every manager — period clock, expulsion checks —
// in manager id order, each manager's verdicts in target id order. The
// nodes' blame flushes are their duties', which run after it at the same
// instant. Under a wall-clock backend it runs outside any node lock.
func (c *Cluster) tick(p msg.Period) {
	if c.Opts.OnPeriodSnapshot != nil {
		// Sampled before the period's flushes so the snapshot reflects
		// exactly the traffic of completed periods.
		c.Opts.OnPeriodSnapshot(p, c.Collector.SnapshotAt(uint64(p)))
	}
	c.mu.Lock()
	c.period = p
	//lint:allow ordered-map-range collect-then-sort: ids are sorted before the managers tick
	for id := range c.Managers {
		c.tickIDs = append(c.tickIDs, id)
	}
	slices.Sort(c.tickIDs)
	for _, id := range c.tickIDs {
		c.tickMgrs = append(c.tickMgrs, c.Managers[id])
	}
	c.mu.Unlock()
	for _, m := range c.tickMgrs {
		m.Tick(p, &c.tickSends)
	}
	clear(c.tickMgrs) // keep no manager alive
	c.tickIDs, c.tickMgrs = c.tickIDs[:0], c.tickMgrs[:0]
}

// goneLocked reports whether id has been expelled or has departed — either
// way it is out of the system for good. Callers hold c.mu.
func (c *Cluster) goneLocked(id msg.NodeID) bool {
	_, expelled := c.Expelled[id]
	_, departed := c.Departed[id]
	return expelled || departed
}

// expel removes a node from the running system.
func (c *Cluster) expel(id msg.NodeID) {
	c.mu.Lock()
	if c.goneLocked(id) {
		c.mu.Unlock()
		return
	}
	c.Expelled[id] = c.RT.Now()
	node := c.Nodes[id]
	c.mu.Unlock()
	c.Collector.OnExpel()
	if c.Opts.ExpelOnDetection {
		c.remove(id, node)
	}
}

// remove takes a node out of the running system — the one path under leave,
// expel and crash: out of the sampling population, off the network, stopped
// (Node.Stop drops what its own callbacks hold open, and its period duty
// ends, its blame client's unflushed blames unsent), and its manager out of
// Managers — its score copies go with it, and the targets it managed keep
// the copies of their other managers.
func (c *Cluster) remove(id msg.NodeID, node *gossip.Node) {
	c.Dir.Expel(id)
	c.RT.SetDown(id, true)
	if node != nil {
		c.RT.Exec(id, node.Stop)
	}
	c.mu.Lock()
	delete(c.Managers, id)
	c.mu.Unlock()
	// A removal only adds one replacement manager per affected target (the
	// assignment probes over the unchanged registration set, skipping the
	// departed node), so the cheap gains-only rebalance suffices.
	c.scheduleRebalance(id, false)
}

// StartStream schedules chunk injections at the source (node 0) for the
// given duration. It panics unless this cluster hosts node 0.
func (c *Cluster) StartStream(duration time.Duration) {
	if c.Nodes[0] == nil {
		panic("cluster: StartStream without the source, node 0, hosted here")
	}
	scheduleStream(c.RT.Context(0), c.Nodes[0], c.Content, c.Opts.Stream, duration, c.Playouts[0])
}

// Run advances the cluster to the given time: virtual under the
// discrete-event backend, wall-clock under the UDP one. It is
// RunContext with a background context — for runs nothing cancels.
func (c *Cluster) Run(until time.Duration) { c.RT.Run(context.Background(), until) }

// RunContext advances the cluster like Run but aborts promptly when ctx is
// cancelled, returning ctx.Err(). After a cancelled advance the cluster is
// still consistent; call Close to tear it down (wall-clock backends cancel
// their pending timers there, so an interrupted run does not wait out the
// rest of its schedule).
func (c *Cluster) RunContext(ctx context.Context, until time.Duration) error {
	return c.RT.Run(ctx, until)
}

// After schedules a harness callback at d from now (audits, churn events,
// mid-run probes), outside any node's serialization.
func (c *Cluster) After(d time.Duration, fn func()) { c.RT.After(d, fn) }

// Close shuts the backend down and waits for in-flight callbacks. Call it
// before reading node state after a wall-clock run; it is a no-op under the
// discrete-event backend.
func (c *Cluster) Close() { c.RT.Close() }

// Auditor lazily creates the system's auditor, hosted at the source node
// (audits run sporadically from any node; one auditor keeps the experiments
// deterministic). It blames through the source's own client. Its outcomes
// expel on verdict when ExpelOnDetection is set.
func (c *Cluster) Auditor(onOutcome func(core.AuditOutcome)) *core.Auditor {
	if c.auditor != nil {
		return c.auditor
	}
	c.mu.Lock()
	sink := countingSink{coll: c.Collector, inner: c.duties[0].client}
	c.mu.Unlock()
	c.auditor = core.NewAuditor(0, c.Opts.Core, c.RT.Context(0), c.RT.Network(), sink,
		func(out core.AuditOutcome) {
			c.Collector.OnAuditOutcome(out.Responded, !out.Expel)
			if out.Expel {
				c.expelFrom(0, out.Target)
			}
			if onOutcome != nil {
				onOutcome(out)
			}
		})
	return c.auditor
}

// Scores returns every known node's current score: the min-vote over its
// manager copies. Under a wall-clock backend call it after Close (or accept
// slightly stale reads).
func (c *Cluster) Scores() map[msg.NodeID]float64 {
	ids := c.Dir.All()
	out := make(map[msg.NodeID]float64, len(ids))
	c.mu.Lock()
	mgrByID := maps.Clone(c.Managers)
	c.mu.Unlock()
	for _, target := range ids {
		var copies []float64
		for _, m := range c.Dir.Managers(target, c.Opts.Rep.M) {
			mgr, ok := mgrByID[m]
			if !ok {
				continue
			}
			if s, tracked := mgr.Score(target); tracked {
				copies = append(copies, s)
			}
		}
		score, _ := reputation.MinVoteScore(copies, nil)
		out[target] = score
	}
	return out
}

// ScoreRead is the result of one over-the-wire score read.
type ScoreRead struct {
	// Score is the min-vote over the manager copies that answered.
	Score float64
	// Expelled reports whether any answering manager holds an expulsion
	// verdict.
	Expelled bool
	// Replies is how many manager copies answered before the timeout.
	Replies int
}

// ReadScores performs a deployment's decentralized score reads: each
// target's M managers are queried over the wire from Self and the copies
// combined by min-vote (§5.1). It blocks until every read resolves or a
// deadline slightly past the reader's timeout expires — a runtime closed
// mid-read (early shutdown) yields partial results, never a hang. It panics
// without a Deployment, and must not be called from inside a node callback.
func (c *Cluster) ReadScores(targets []msg.NodeID) map[msg.NodeID]ScoreRead {
	if c.reader == nil {
		panic("cluster: ReadScores needs a Deployment")
	}
	out := make(map[msg.NodeID]ScoreRead, len(targets))
	var mu sync.Mutex
	resolved := make(chan struct{}, len(targets)) // buffered: callbacks never block
	c.RT.Exec(c.Opts.Deployment.Self, func() {
		for _, target := range targets {
			c.reader.Read(target, func(score float64, expelled bool, replies int) {
				mu.Lock()
				out[target] = ScoreRead{Score: score, Expelled: expelled, Replies: replies}
				mu.Unlock()
				resolved <- struct{}{}
			})
		}
	})
	// The reader answers every read within its 2·Tg timeout; anything
	// slower means the runtime stopped scheduling our callbacks (Close
	// dropped them), so give up rather than wait on tokens that will never
	// come.
	//lint:allow no-wallclock liveness deadline for a wall-clock runtime closed mid-read; never reaches a document
	deadline := time.NewTimer(4*c.Opts.Gossip.Period + time.Second)
	defer deadline.Stop()
collect:
	for range targets {
		select {
		case <-resolved:
		case <-deadline.C:
			break collect
		}
	}
	mu.Lock()
	defer mu.Unlock()
	return maps.Clone(out)
}

// Period returns the current score period.
func (c *Cluster) Period() msg.Period {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.period
}

// Manager returns member id's manager, nil where this cluster holds none —
// a node that left, was expelled or is crashed has none. A crash restart
// builds a fresh one, so a reader on another goroutine asks again instead of
// keeping one.
func (c *Cluster) Manager(id msg.NodeID) *reputation.Manager {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.Managers[id]
}

// Handoffs returns how many times membership changes have given a hosted
// manager a target so far: one per (target, gained manager) pair, whatever
// the Handoffs pushed to it.
func (c *Cluster) Handoffs() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.handoffs
}

// --- churn ---

// ScheduleJoin arranges for a fresh node to join the system at time at. The
// node's id is allocated immediately (and returned); the node itself — with
// its behavior from BehaviorFor, verifier and manager duty — is assembled
// and started when the time comes. Its managers pick it up at the
// then-current period, and the manager assignment is rebalanced with state
// handoff.
func (c *Cluster) ScheduleJoin(at time.Duration) msg.NodeID {
	c.mu.Lock()
	id := c.nextID
	c.nextID++
	c.mu.Unlock()
	c.RT.After(at, func() { c.join(id) })
	return id
}

// ScheduleLeave arranges for id to leave the system voluntarily at time at:
// it stops gossiping, drops off the network and exits the sampling
// population. Its manager duties are handed off.
func (c *Cluster) ScheduleLeave(at time.Duration, id msg.NodeID) {
	c.RT.After(at, func() { c.leave(id) })
}

// join brings a scheduled churn arrival into the running system.
func (c *Cluster) join(id msg.NodeID) {
	c.admit(id)
	c.mu.Lock()
	c.Joined[id] = c.RT.Now()
	c.mu.Unlock()
}

// admit brings node id into the running system: a churn arrival, or a
// crashed node coming back with fresh protocol state under its old id. A
// hosted node is built and started; a deployment's remote member only
// rejoins the directory and its managers — its own process rebuilds it.
// The managers pick it up at the current period — Track does not reset an
// entry that survived a crash — and the full rebalance has the managers of
// its targets push their copies to its fresh manager.
func (c *Cluster) admit(id msg.NodeID) {
	c.Dir.Join(id)
	if c.hosts(id) {
		c.build(id)
	}
	if c.Opts.Chaos != nil {
		// Rebuilt from the node's base plus the standing fault overlays: a
		// restart clears Down, a node joining mid-partition lands on the
		// majority side.
		c.applyChaosConditions(id)
	} else if cond, ok := c.Opts.conditions(id); ok {
		c.RT.SetConditions(id, cond)
	}
	c.mu.Lock()
	p := c.period
	c.mu.Unlock()
	if c.Opts.LiFTinG {
		c.trackAtManagers(id, p)
	}
	c.startNode(id)
	// A join grows the registration set. Jump hashing moves about M of the
	// N·M manager slots to the joiner, but which ones only a pass over every
	// target finds: full rebalance.
	c.scheduleRebalance(id, true)
}

// leave removes a voluntarily departing node.
func (c *Cluster) leave(id msg.NodeID) {
	c.mu.Lock()
	if c.goneLocked(id) {
		c.mu.Unlock()
		return
	}
	c.Departed[id] = c.RT.Now()
	node := c.Nodes[id]
	c.mu.Unlock()
	c.remove(id, node)
}
