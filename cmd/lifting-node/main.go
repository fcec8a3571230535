// Command lifting-node runs ONE LiFTinG gossip node as an OS process over
// real UDP sockets: the deployment unit of the reproduction. A scenario
// becomes N processes on loopback or N machines on a LAN, each started as
//
//	lifting-node -id 3 -listen 127.0.0.1:9003 \
//	    -peers "0=127.0.0.1:9000,1=127.0.0.1:9001,2=127.0.0.1:9002" \
//	    -duration 30s -seed 7
//
// Every process of a deployment must agree on -seed, -period, -f, -m, -eta
// and the membership implied by -id and -peers, which must be exactly the
// ids 0..N-1: the manager assignment, the per-node random streams and the
// score thresholds are all derived from them. Each process runs the same
// harness as an in-process experiment, a cluster.Cluster, hosting its one
// node. Node 0 is the source: it injects the stream, which then reaches
// everyone else only over the wire.
//
// On completion a process started with -report performs decentralized
// min-vote score reads of the whole membership over UDP and prints one
//
//	SCORE <id> <score> <expelled> <replies>
//
// line per node. Every process then prints its manager's copy of each score
// it holds, as one "COPY <self> <target> <blame> <join-period> <expelled>"
// line per target, and exits 0. SIGINT/SIGTERM cancel the daemon's context,
// which shuts the node down early but cleanly (pending timers cancelled,
// sockets closed, in-flight callbacks drained) — the same cancellation path
// the experiment API exposes programmatically.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	goruntime "runtime"
	"sort"
	"syscall"
	"time"

	"lifting/internal/chaos"
	"lifting/internal/cluster"
	"lifting/internal/core"
	"lifting/internal/freerider"
	"lifting/internal/gateway"
	"lifting/internal/gossip"
	"lifting/internal/membership"
	"lifting/internal/metrics"
	"lifting/internal/msg"
	"lifting/internal/net"
	"lifting/internal/obs"
	"lifting/internal/reputation"
	"lifting/internal/rng"
	"lifting/internal/stream"
	"lifting/internal/transport"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr, nil))
}

// run executes the daemon until ctx is cancelled or the deployment duration
// elapses; interrupt, if non-nil, also triggers early shutdown when closed
// (tests use it in place of a signal).
func run(ctx context.Context, args []string, stdout, stderr io.Writer, interrupt <-chan struct{}) int {
	fs := flag.NewFlagSet("lifting-node", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		id       = fs.Uint("id", 0, "this node's id")
		listen   = fs.String("listen", "127.0.0.1:0", "UDP address to bind")
		peers    = fs.String("peers", "", "bootstrap peer addresses: comma-separated id=host:port")
		duration = fs.Duration("duration", 30*time.Second, "how long to stream/run before reporting")
		warmup   = fs.Duration("warmup", 500*time.Millisecond, "delay before the stream starts, so peers can bind")
		seed     = fs.Uint64("seed", 7, "deployment-wide random seed (must match on every process)")
		f        = fs.Int("f", 7, "gossip fanout")
		period   = fs.Duration("period", 500*time.Millisecond, "gossip period Tg")
		m        = fs.Int("m", 10, "reputation managers per node")
		eta      = fs.Float64("eta", -1e9, "expulsion threshold on normalized scores")
		grace    = fs.Int("grace", 8, "periods before eta applies (at least 1)")
		pdcc     = fs.Float64("pdcc", 1, "direct cross-check probability")
		loss     = fs.Float64("loss", 0, "modelled extra UDP loss on top of the real network")
		bitrate  = fs.Int("bitrate", 674_000, "stream bitrate, bits per second")
		payload  = fs.Int("payload", 1316, "chunk payload size, bytes")
		freeride = fs.Float64("freeride", 0, "degree of freeriding in all three dimensions (0 = honest)")
		report   = fs.Bool("report", false, "after the run, read every node's score over the wire and print SCORE lines")
		soak     = fs.Bool("soak", false, "replay the deployment fault schedule (derived from -seed, -duration, -period and the membership) through the cluster's fault plane: a crash of this node tears it down and rebuilds it on restart, a crash of another takes it out of the directory until then")
		httpAddr = fs.String("http", "", "serve /metrics, /status and /debug/pprof/ on this address (empty = disabled)")
		gwAddr   = fs.String("gateway", "", "serve the HTTP stream gateway (/stream/chunk/{id}) on this address (empty = disabled); it serves the chunk store the node started with, so after a -soak restart of this node newer chunks come from -gateway-source")
		gwSource = fs.String("gateway-source", "", "upstream gateway base URL for chunks this node does not hold (e.g. the source's gateway)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "lifting-node: unexpected arguments %v\n", fs.Args())
		return 2
	}
	// The flags are the one outside input of the assembly below, which
	// panics on a configuration it cannot run.
	gcfg := gossip.Config{F: *f, Period: *period, HistoryPeriods: 50}
	ccfg := core.Config{F: gcfg.F, Period: gcfg.Period, HistoryPeriods: gcfg.HistoryPeriods, Pdcc: *pdcc, Gamma: 8.95}
	scfg := stream.Config{BitrateBps: *bitrate, ChunkPayload: *payload}
	checks := []error{gcfg.Validate(), ccfg.Validate(), scfg.Validate()}
	if *m < 1 {
		checks = append(checks, fmt.Errorf("reputation: managers per node (-m) must be positive, got %d", *m))
	}
	// What no config validates: -loss 2 would drop every datagram and feed
	// the compensation a loss rate above one.
	for _, f := range []struct {
		ok         bool
		name, want string
		got        any
	}{
		{*loss >= 0 && *loss < 1, "loss", "in [0, 1)", *loss},
		{*freeride >= 0 && *freeride <= 1, "freeride", "in [0, 1]", *freeride},
		{*grace >= 1, "grace", "at least 1", *grace},
		{*freeride == 0 || *id != 0, "freeride", "0 on node 0, the always-honest source", *freeride},
		{*duration > 0, "duration", "positive", *duration},
		{*warmup >= 0, "warmup", "at least 0", *warmup},
		{!math.IsNaN(*eta) && !math.IsInf(*eta, 0), "eta", "a finite number", *eta},
	} {
		if !f.ok {
			checks = append(checks, fmt.Errorf("-%s must be %s, got %v", f.name, f.want, f.got))
		}
	}
	for _, err := range checks {
		if err != nil {
			fmt.Fprintf(stderr, "lifting-node: %v\n", err)
			return 2
		}
	}

	peerAddrs, err := transport.ParsePeers(*peers)
	if err != nil {
		fmt.Fprintf(stderr, "lifting-node: %v\n", err)
		return 2
	}
	self := msg.NodeID(*id)
	if _, dup := peerAddrs[self]; dup {
		// A full membership file may include ourselves; our own address
		// comes from -listen.
		delete(peerAddrs, self)
	}
	if len(peerAddrs) == 0 {
		fmt.Fprintf(stderr, "lifting-node: -peers must name at least one other node\n")
		return 2
	}
	members := []msg.NodeID{self}
	for pid := range peerAddrs {
		members = append(members, pid)
	}
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
	for i, mid := range members {
		if mid != msg.NodeID(i) {
			fmt.Fprintf(stderr, "lifting-node: -peers with -id %d must name exactly the ids 0..%d, got %v\n", self, len(members)-1, members)
			return 2
		}
	}

	book := transport.NewBook()
	for pid, addr := range peerAddrs {
		if err := book.Set(pid, addr); err != nil {
			fmt.Fprintf(stderr, "lifting-node: %v\n", err)
			return 2
		}
	}

	collector := metrics.NewCollector()
	rt := transport.New(transport.Options{
		Seed:      *seed ^ uint64(self), // per-process loss/jitter draws
		Book:      book,
		Collector: collector,
	})
	bound, err := rt.AddNode(self, *listen)
	if err != nil {
		fmt.Fprintf(stderr, "lifting-node: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "LISTEN %d %s\n", self, bound)

	// -soak: every process derives the identical fault plan from the flags
	// the deployment already shares, and its cluster replays it. Node 0 is
	// the source and is never a fault target — a faulted source would
	// explain any oracle failure. Faults keep their offset from the stream
	// start, which is -warmup after this process's.
	var plan *chaos.Plan
	if *soak {
		plan = chaos.Generate(chaos.DeploymentConfig(*seed, *duration, *period, members[1:]))
		fmt.Fprintf(stdout, "SOAK %d events=%d skew=%.4f\n", self, len(plan.Events), plan.SkewFactor(self))
		for i := range plan.Events {
			ev := &plan.Events[i]
			ev.At += *warmup
			fmt.Fprintf(stdout, "CHAOS %d %s %v\n", self, ev.Kind, ev.Nodes)
		}
	}

	c := cluster.New(cluster.Options{
		N:                len(members),
		Seed:             *seed,
		Gossip:           gcfg,
		Core:             ccfg,
		Rep:              reputation.Config{M: *m, Eta: *eta, GracePeriods: *grace},
		Stream:           scfg,
		LiFTinG:          true,
		BlameMode:        cluster.BlameMessages,
		ExpelOnDetection: true,
		NetDefaults:      net.Uniform(*loss, 0),
		Chaos:            plan,
		BehaviorFor: func(msg.NodeID, *membership.Directory, *rng.Stream) gossip.Behavior {
			if *freeride == 0 {
				return nil
			}
			return freerider.Degree{Delta1: *freeride, Delta2: *freeride, Delta3: *freeride}
		},
		Deployment: &cluster.Deployment{
			Self:      self,
			Runtime:   rt,
			Collector: collector,
			OnExpel: func(target msg.NodeID, reason msg.BlameReason) {
				fmt.Fprintf(stdout, "EXPEL %d %s\n", target, reason)
			},
		},
	})

	if *httpAddr != "" {
		// Soak-harness gauges: memory growth and score-period drift are the
		// two things a long-running scrape watches for. Heap-in-use is the
		// dependency-free stand-in for RSS; drift is measured in periods
		// against the process's own wall clock, so a skewed clock (or a
		// stalled tick loop) shows up as a linear ramp.
		procStart := time.Now()
		tg := *period
		scrape := func() (metrics.Snapshot, []obs.Gauge) {
			p := c.Period()
			drift := float64(p) - time.Since(procStart).Seconds()/tg.Seconds()
			var ms goruntime.MemStats
			goruntime.ReadMemStats(&ms)
			return collector.SnapshotAt(uint64(p)), []obs.Gauge{
				{Name: "lifting_process_heap_bytes", Help: "process heap in use (runtime.ReadMemStats HeapAlloc)", Value: float64(ms.HeapAlloc)},
				{Name: "lifting_period_drift_periods", Help: "local score-period clock minus wall-clock expectation, in periods", Value: drift},
			}
		}
		srv := obs.New(scrape, func() obs.Status {
			st := obs.Status{
				NodeID:          uint32(self),
				Period:          uint64(c.Period()),
				MembershipEpoch: c.Dir.Epoch(),
				Members:         len(members),
				PeerBookSize:    len(book.IDs()),
			}
			// Every verdict this process learns removes its target from
			// the directory (ExpelOnDetection), so the dead members are
			// the expelled ones, in id order.
			for _, target := range members {
				if !c.Dir.Alive(target) {
					st.Expelled = append(st.Expelled, uint32(target))
				}
			}
			// The local manager's copies: a partial view, since the
			// authoritative score is the min-vote over all M copies. A
			// crash takes the manager away and the restart builds a new
			// one, so it is looked up per scrape, and a node that is down
			// shows no scores.
			if mgr := c.Manager(self); mgr != nil {
				for target, score := range mgr.Scores() {
					st.Scores = append(st.Scores, obs.Score{Node: uint32(target), Score: score})
				}
			}
			sort.Slice(st.Scores, func(i, j int) bool { return st.Scores[i].Node < st.Scores[j].Node })
			return st
		})
		httpBound, err := srv.Start(*httpAddr)
		if err != nil {
			fmt.Fprintf(stderr, "lifting-node: %v\n", err)
			rt.Close()
			return 1
		}
		defer srv.Close()
		fmt.Fprintf(stdout, "HTTP %d %s\n", self, httpBound)
	}

	if *gwAddr != "" {
		gwOpts := gateway.Options{Store: c.Nodes[self].Store(), Upstream: *gwSource}
		if self == 0 {
			// Only the source's gateway regenerates arbitrary chunks: it
			// knows the canonical stream. Everyone else serves what the
			// gossip plane delivered, falling back to -gateway-source.
			gwOpts.Origin = c.Content
		}
		gw := gateway.New(gwOpts)
		gwBound, err := gw.Start(*gwAddr)
		if err != nil {
			fmt.Fprintf(stderr, "lifting-node: %v\n", err)
			rt.Close()
			return 1
		}
		defer gw.Close()
		fmt.Fprintf(stdout, "GATEWAY %d %s\n", self, gwBound)
	}

	c.Start()
	if self == 0 {
		rt.After(*warmup, func() { c.StartStream(*duration) })
	}

	// The run is one context-bounded Run on the transport runtime: signals
	// cancel the context (see main), the test interrupt channel folds into
	// the same path.
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	if interrupt != nil {
		go func() {
			select {
			case <-interrupt:
				cancel()
			case <-runCtx.Done():
			}
		}()
	}
	interrupted := false
	if err := rt.Run(runCtx, *warmup+*duration+2**period); err != nil {
		fmt.Fprintf(stderr, "lifting-node: %v, shutting down\n", err)
		interrupted = true
	}

	if *report && !interrupted {
		reads := c.ReadScores(members)
		ids := make([]msg.NodeID, 0, len(reads))
		for rid := range reads {
			ids = append(ids, rid)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, rid := range ids {
			r := reads[rid]
			fmt.Fprintf(stdout, "SCORE %d %.6f %t %d\n", rid, r.Score, r.Expelled, r.Replies)
		}
	}

	rt.Close()
	if mgr := c.Manager(self); mgr != nil {
		for _, target := range members {
			if e, tracked := mgr.Snapshot(target); tracked {
				fmt.Fprintf(stdout, "COPY %d %d %.6f %d %t\n", self, target, e.TotalBlame, e.JoinPeriod, e.Expelled)
			}
		}
	}
	fmt.Fprintf(stdout, "DONE %d chaos=%d\n", self, c.ChaosApplied())
	return 0
}
