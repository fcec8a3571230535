package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	gonet "net"
	"net/http"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"lifting/internal/chaos"
	"lifting/internal/cluster"
	"lifting/internal/content"
	"lifting/internal/core"
	"lifting/internal/freerider"
	"lifting/internal/gateway"
	"lifting/internal/gossip"
	"lifting/internal/membership"
	"lifting/internal/msg"
	"lifting/internal/net"
	"lifting/internal/reputation"
	"lifting/internal/rng"
	"lifting/internal/runtime"
	"lifting/internal/stream"
)

func TestRunRejectsBadFlags(t *testing.T) {
	cases := [][]string{
		{"-badflag"},
		{"-peers", "nonsense"},
		{"-peers", ""},                  // no peers at all
		{"-id", "1", "-peers", "1=a:1"}, // only ourselves
		{"-peers", "0=127.0.0.1:1", "extra-arg"},
	}
	for _, args := range cases {
		var out, errOut bytes.Buffer
		if code := run(context.Background(), args, &out, &errOut, nil); code != 2 {
			t.Errorf("run(%v) = %d, want 2 (stderr: %s)", args, code, errOut.String())
		}
	}

	// A number the assembly cannot run with, on an otherwise valid command
	// line: refused in one line naming it, before a socket is bound — not a
	// panic out of the assembly (-f 0 once) nor a run that streams nothing
	// (-bitrate 0 once).
	numeric := []struct{ flag, value, names string }{
		{"-f", "0", "fanout"},
		{"-period", "0", "period"},
		{"-pdcc", "2", "pdcc"},
		{"-bitrate", "0", "bitrate"},
		{"-payload", "0", "payload"},
		{"-m", "0", "-m"},
	}
	for _, c := range numeric {
		args := []string{"-id", "1", "-peers", "0=127.0.0.1:9", c.flag, c.value}
		var out, errOut bytes.Buffer
		code := run(context.Background(), args, &out, &errOut, nil)
		msg := errOut.String()
		if code != 2 || out.Len() != 0 || strings.Count(msg, "\n") != 1 || !strings.Contains(msg, c.names) {
			t.Errorf("run(%v) = %d, stdout %q, stderr %q; want 2, nothing, one line naming %q", args, code, out.String(), msg, c.names)
		}
	}
}

// TestRunRejectsFlagsOutOfDomain: a probability, count, span or membership
// outside its domain is refused in one line naming the flag, before a socket
// is bound, instead of a run that takes it as it comes (-loss 2 would drop
// every datagram and exit 0). Each case is a flag, its value and the flags
// it needs; later flags override the shared ones.
func TestRunRejectsFlagsOutOfDomain(t *testing.T) {
	for _, c := range [][]string{
		{"-loss", "2"},
		{"-loss", "-0.5"},
		{"-loss", "1"},
		{"-freeride", "1.5"},
		{"-freeride", "-0.1"},
		{"-freeride", "0.5", "-id", "0"}, // node 0 is the always-honest source
		{"-grace", "-3"},
		{"-grace", "0"}, // would silently become the expulsion default of 8
		{"-duration", "-1s"},
		{"-duration", "0s"},
		{"-warmup", "-1s"},
		{"-eta", "NaN"},
		{"-eta", "-Inf"},
		// The membership is -id plus -peers and must be exactly 0..N-1.
		{"-peers", "0=127.0.0.1:9,5=127.0.0.1:10"},
		{"-peers", "2=127.0.0.1:9"},
		{"-peers", "0=127.0.0.1:9", "-id", "7"},
	} {
		// A short run, so a flag that is not refused ends the run quickly.
		args := append([]string{"-id", "1", "-peers", "0=127.0.0.1:9", "-duration", "20ms", "-warmup", "0"}, c...)
		var out, errOut bytes.Buffer
		code := run(context.Background(), args, &out, &errOut, nil)
		msg := errOut.String()
		if code != 2 || out.Len() != 0 || strings.Count(msg, "\n") != 1 || !strings.HasPrefix(msg, "lifting-node: "+c[0]+" ") {
			t.Errorf("run(%v) = %d, stdout %q, stderr %q; want 2, nothing, one line naming %s", c, code, out.String(), msg, c[0])
		}
	}
}

// TestRunInterrupt pins the daemon's cancellation path: a node started with
// a long duration shuts down promptly — sockets closed, callbacks drained —
// when the interrupt channel closes, exactly as a SIGTERM would via the
// signal context. Before that, its /status is fetched while the node runs:
// the handler reads the cluster from an HTTP goroutine.
func TestRunInterrupt(t *testing.T) {
	interrupt := make(chan struct{})
	done := make(chan int, 1)
	stdout, w := io.Pipe()
	var errOut bytes.Buffer
	go func() {
		code := run(context.Background(),
			[]string{"-id", "1", "-peers", "0=127.0.0.1:1", "-duration", "1h", "-http", "127.0.0.1:0"},
			w, &errOut, interrupt)
		w.Close()
		done <- code
	}()
	lines := bufio.NewScanner(stdout)
	var head []string
	httpAddr := ""
	for httpAddr == "" && lines.Scan() {
		head = append(head, lines.Text())
		if f := strings.Fields(lines.Text()); len(f) == 3 && f[0] == "HTTP" {
			httpAddr = f[2]
		}
	}
	if httpAddr == "" {
		t.Fatalf("daemon printed no HTTP line: %q", head)
	}
	// Drain the rest of stdout, so the daemon never blocks on the pipe.
	rest := make(chan string, 1)
	go func() {
		var b strings.Builder
		for lines.Scan() {
			b.WriteString(lines.Text() + "\n")
		}
		rest <- b.String()
	}()

	resp, err := http.Get("http://" + httpAddr + "/status")
	if err != nil {
		t.Fatalf("/status: %v", err)
	}
	var st struct {
		NodeID  uint32 `json:"node_id"`
		Members int    `json:"members"`
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil || st.NodeID != 1 || st.Members != 2 {
		t.Errorf("/status = %+v (err %v), want node 1 of 2 members", st, err)
	}

	close(interrupt)
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("interrupted daemon exited %d:\n%s", code, errOut.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("interrupted daemon did not shut down within 10s")
	}
	if tail := <-rest; !strings.Contains(tail, "DONE 1") {
		t.Errorf("daemon did not complete its shutdown line:\n%s", tail)
	}
}

// TestRunSoakStatusAcrossRestart runs one daemon in process with -soak and
// -http. With the source unreachable its membership is {0, 1}, so the
// deployment plan's one fault candidate is the daemon's own node: the plan
// crashes it, and its cluster tears the node down and rebuilds it on
// restart, replacing the local manager /status reads. /status is scraped
// from HTTP goroutines before, across and after that, and must answer every
// time; the run must end having applied every planned event.
func TestRunSoakStatusAcrossRestart(t *testing.T) {
	const (
		seed     = 5
		period   = 100 * time.Millisecond
		duration = 2 * time.Second
	)
	plan := chaos.Generate(chaos.DeploymentConfig(seed, duration, period, []msg.NodeID{1}))
	var restartAt time.Duration
	for _, ev := range plan.Events {
		if ev.Kind == chaos.Restart && slices.Contains(ev.Nodes, 1) {
			restartAt = ev.At
		}
	}
	if restartAt == 0 {
		t.Fatalf("the plan restarts no node 1: %+v", plan.Events)
	}

	done := make(chan int, 1)
	stdout, w := io.Pipe()
	var errOut bytes.Buffer
	go func() {
		code := run(context.Background(), []string{
			"-id", "1", "-peers", "0=127.0.0.1:1", "-seed", strconv.Itoa(seed),
			"-period", period.String(), "-duration", duration.String(), "-warmup", "0",
			"-soak", "-http", "127.0.0.1:0",
		}, w, &errOut, nil)
		w.Close()
		done <- code
	}()
	lines := bufio.NewScanner(stdout)
	var head []string
	httpAddr := ""
	for httpAddr == "" && lines.Scan() {
		head = append(head, lines.Text())
		if f := strings.Fields(lines.Text()); len(f) == 3 && f[0] == "HTTP" {
			httpAddr = f[2]
		}
	}
	if httpAddr == "" {
		t.Fatalf("daemon printed no HTTP line: %q", head)
	}
	rest := make(chan string, 1)
	go func() {
		var b strings.Builder
		for lines.Scan() {
			b.WriteString(lines.Text() + "\n")
		}
		rest <- b.String()
	}()

	// The daemon's clock started before its HTTP line, so a scrape this
	// long after the line is at least as late on the daemon's clock.
	client := &http.Client{Timeout: 2 * time.Second}
	start := time.Now()
	scrapes, afterRestart := 0, 0
	for time.Since(start) < duration {
		resp, err := client.Get("http://" + httpAddr + "/status")
		if err != nil {
			t.Fatalf("/status after %v: %v", time.Since(start), err)
		}
		var st struct {
			NodeID uint32 `json:"node_id"`
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil || st.NodeID != 1 {
			t.Fatalf("/status after %v = %+v (err %v), want node 1", time.Since(start), st, err)
		}
		scrapes++
		if time.Since(start) > restartAt+period {
			afterRestart++
		}
		time.Sleep(period / 4)
	}
	if afterRestart == 0 {
		t.Errorf("no /status scrape after the restart at %v (%d scrapes)", restartAt, scrapes)
	}

	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("soaking daemon exited %d:\n%s", code, errOut.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("soaking daemon did not finish within 10s of its duration")
	}
	out := strings.Join(head, "\n") + "\n" + <-rest
	for _, want := range []string{"CHAOS 1 crash [1]", "CHAOS 1 restart [1]", fmt.Sprintf("DONE 1 chaos=%d", len(plan.Events))} {
		if !strings.Contains(out, want) {
			t.Errorf("daemon output lacks %q:\n%s", want, out)
		}
	}
}

// scenario is the shared shape of the multi-process deployment and its
// in-process sim twin: 5 nodes, node 0 the source, node 4 freeriding hard,
// an expulsion threshold the freerider must cross and honest nodes must not.
const (
	scenN     = 5
	scenRider = msg.NodeID(4)
	scenSeed  = 7
	scenF     = scenN - 1
	scenTg    = 100 * time.Millisecond
	scenDelta = 0.6
	scenEta   = -2.5
	scenGrace = 8
	scenDur   = 4 * time.Second
)

// simVerdict runs the scenario on the deterministic discrete-event backend
// with blames travelling as messages — the exact reputation wiring the
// daemons deploy — and returns the verdict the UDP deployment must
// reproduce.
func simVerdict(t *testing.T) (honestMean, riderScore float64, expelled map[msg.NodeID]bool) {
	t.Helper()
	opts := cluster.Options{
		N:       scenN,
		Seed:    scenSeed,
		Backend: runtime.KindSim,
		Gossip: gossip.Config{
			F:              scenF,
			Period:         scenTg,
			ChunkPayload:   1316,
			HistoryPeriods: 50,
		},
		Core: core.Config{
			F:              scenF,
			Period:         scenTg,
			Pdcc:           1,
			HistoryPeriods: 50,
			Gamma:          8.95,
			Eta:            scenEta,
		},
		Rep:              reputation.Config{M: scenN, Eta: scenEta, GracePeriods: scenGrace},
		Stream:           stream.Config{BitrateBps: 674_000, ChunkPayload: 1316},
		NetDefaults:      net.Uniform(0, 2*time.Millisecond),
		LiFTinG:          true,
		BlameMode:        cluster.BlameMessages,
		ExpelOnDetection: false, // verdict only: managers mark, nobody is removed
		BehaviorFor: func(id msg.NodeID, _ *membership.Directory, _ *rng.Stream) gossip.Behavior {
			if id == scenRider {
				return freerider.Degree{Delta1: scenDelta, Delta2: scenDelta, Delta3: scenDelta}
			}
			return nil
		},
	}
	c := cluster.New(opts)
	c.Start()
	c.StartStream(scenDur)
	c.Run(scenDur + 2*scenTg)
	c.Close()

	scores := c.Scores()
	expelled = make(map[msg.NodeID]bool)
	var honest float64
	for i := 1; i < scenN; i++ {
		id := msg.NodeID(i)
		if id == scenRider {
			riderScore = scores[id]
		} else {
			honest += scores[id]
		}
	}
	// Expulsion verdict: min-vote over the managers' marks.
	for i := 1; i < scenN; i++ {
		id := msg.NodeID(i)
		for _, mgr := range c.Managers {
			if _, tracked := mgr.Snapshot(id); !tracked {
				continue
			}
			if e, _ := mgr.Snapshot(id); e.Expelled {
				expelled[id] = true
			}
		}
	}
	return honest / float64(scenN-2), riderScore, expelled
}

// TestMultiProcessDeployment is the acceptance harness for the deployment
// layer: it builds the daemon, launches the quickstart-scale scenario as 5
// OS processes exchanging UDP datagrams on loopback, and asserts the same
// freerider verdict the sim backend produces — the freerider is marked
// expelled with its min-vote score below the honest mean, and no honest node
// is expelled on either backend.
func TestMultiProcessDeployment(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process deployment test is slow")
	}

	simHonest, simRider, simExpelled := simVerdict(t)
	t.Logf("sim verdict: honest mean %.2f, rider %.2f, expelled %v", simHonest, simRider, simExpelled)
	if simRider >= simHonest {
		t.Fatalf("sim scenario did not separate the freerider (%.2f vs %.2f)", simRider, simHonest)
	}
	if !simExpelled[scenRider] {
		t.Fatal("sim scenario did not expel the freerider; the harness needs a stronger scenario")
	}
	for id := range simExpelled {
		if id != scenRider {
			t.Fatalf("sim scenario expelled honest node %d", id)
		}
	}

	bin := filepath.Join(t.TempDir(), "lifting-node")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building lifting-node: %v\n%s", err, out)
	}

	// Reserve one loopback port per node so every process can be given the
	// full membership up front.
	ports := make([]int, scenN)
	for i := range ports {
		c, err := gonet.ListenUDP("udp", &gonet.UDPAddr{IP: gonet.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		ports[i] = c.LocalAddr().(*gonet.UDPAddr).Port
		c.Close()
	}
	var peerSpecs []string
	for i, p := range ports {
		peerSpecs = append(peerSpecs, fmt.Sprintf("%d=127.0.0.1:%d", i, p))
	}
	peers := strings.Join(peerSpecs, ",")

	// Reserve TCP ports: node 1's observability endpoint, plus two stream
	// gateways — the source's (with origin regeneration) and node 2's (store
	// backed, upstream = the source's gateway) — both exercised below while
	// the deployment runs.
	tcpPorts := make([]string, 3)
	for i := range tcpPorts {
		tl, err := gonet.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		tcpPorts[i] = tl.Addr().String()
		tl.Close()
	}
	httpAddr, srcGwAddr, edgeGwAddr := tcpPorts[0], tcpPorts[1], tcpPorts[2]

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	warmup := 700 * time.Millisecond
	outs := make([]bytes.Buffer, scenN)
	cmds := make([]*exec.Cmd, scenN)
	for i := scenN - 1; i >= 0; i-- { // source last: its peers should be listening
		args := []string{
			"-id", strconv.Itoa(i),
			"-listen", fmt.Sprintf("127.0.0.1:%d", ports[i]),
			"-peers", peers,
			"-seed", strconv.Itoa(scenSeed),
			"-f", strconv.Itoa(scenF),
			"-period", scenTg.String(),
			"-m", strconv.Itoa(scenN),
			"-eta", fmt.Sprintf("%g", scenEta),
			"-grace", strconv.Itoa(scenGrace),
			"-warmup", warmup.String(),
		}
		if i == 0 {
			// The source reports; it finishes first so every peer is still
			// up to answer its score reads.
			args = append(args, "-report", "-duration", scenDur.String(),
				"-gateway", srcGwAddr)
		} else {
			args = append(args, "-duration", (scenDur + 1500*time.Millisecond).String())
		}
		if msg.NodeID(i) == scenRider {
			args = append(args, "-freeride", fmt.Sprintf("%g", scenDelta))
		}
		if i == 1 {
			args = append(args, "-http", httpAddr)
		}
		if i == 2 {
			args = append(args, "-gateway", edgeGwAddr, "-gateway-source", "http://"+srcGwAddr)
		}
		cmd := exec.CommandContext(ctx, bin, args...)
		cmd.Stdout = &outs[i]
		cmd.Stderr = &outs[i]
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting node %d: %v", i, err)
		}
		cmds[i] = cmd
	}
	// While the nodes stream, download stream bytes through node 2's HTTP
	// gateway and verify every payload against the canonical content
	// generation — the end-to-end hash check of the content plane.
	scrapeGateway(t, edgeGwAddr)
	// ...and scrape node 1's observability endpoints over real HTTP: the
	// exposition must be well-formed and already carry protocol traffic and
	// redundancy accounting.
	scrapeObservability(t, httpAddr)

	for i, cmd := range cmds {
		if err := cmd.Wait(); err != nil {
			t.Errorf("node %d exited with %v:\n%s", i, err, outs[i].String())
		}
	}
	report := outs[0].String()
	t.Logf("source output:\n%s", report)

	// Parse the source's over-the-wire score reads.
	scores := make(map[msg.NodeID]float64)
	expelled := make(map[msg.NodeID]bool)
	for _, line := range strings.Split(report, "\n") {
		fields := strings.Fields(line)
		if len(fields) != 5 || fields[0] != "SCORE" {
			continue
		}
		id, _ := strconv.Atoi(fields[1])
		score, _ := strconv.ParseFloat(fields[2], 64)
		exp, _ := strconv.ParseBool(fields[3])
		replies, _ := strconv.Atoi(fields[4])
		if replies == 0 {
			t.Errorf("score read of node %d got no manager replies", id)
		}
		scores[msg.NodeID(id)] = score
		expelled[msg.NodeID(id)] = exp
	}
	if len(scores) != scenN {
		t.Fatalf("source reported %d scores, want %d:\n%s", len(scores), scenN, report)
	}

	// The deployment's verdict must match the sim backend's.
	var honest float64
	for i := 1; i < scenN; i++ {
		id := msg.NodeID(i)
		if id != scenRider {
			honest += scores[id]
		}
	}
	honestMean := honest / float64(scenN-2)
	t.Logf("udp verdict: honest mean %.2f, rider %.2f, expelled rider=%t",
		honestMean, scores[scenRider], expelled[scenRider])
	if scores[scenRider] >= honestMean {
		t.Errorf("deployment did not separate the freerider: %.2f vs honest mean %.2f",
			scores[scenRider], honestMean)
	}
	if !expelled[scenRider] {
		t.Error("sim expelled the freerider, the UDP deployment did not")
	}
	for i := 0; i < scenN; i++ {
		id := msg.NodeID(i)
		if id != scenRider && expelled[id] {
			t.Errorf("honest node %d marked expelled in the deployment (sim expelled none)", id)
		}
	}
}

// TestMultiProcessSoak drives the deployment fault schedule through real OS
// processes: five honest daemons started with -soak independently derive the
// same chaos plan from their shared flags and replay it through their
// clusters' fault plane — a crash (the victim's process tears its node down
// and rebuilds it, the others drop the victim until its restart), a
// partition, a correlated loss burst, standing duplication/reordering and
// two skewed clocks. The oracles are the deployment-level halves of the soak
// invariants: every process announces the identical plan (its CHAOS lines)
// and applies every event of it (DONE … chaos=), nobody expels an honest
// node under it, the stream keeps delivering, and the /metrics scrape
// exposes the RSS and period-drift gauges the long-running harness watches.
func TestMultiProcessSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process soak test is slow")
	}

	const (
		soakN    = 5
		soakSeed = 11
		soakTg   = 100 * time.Millisecond
		soakDur  = 5 * time.Second
		soakEta  = -6.0 // generous: faults must not look like freeriding
	)

	bin := filepath.Join(t.TempDir(), "lifting-node")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building lifting-node: %v\n%s", err, out)
	}

	ports := make([]int, soakN)
	for i := range ports {
		c, err := gonet.ListenUDP("udp", &gonet.UDPAddr{IP: gonet.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		ports[i] = c.LocalAddr().(*gonet.UDPAddr).Port
		c.Close()
	}
	var peerSpecs []string
	for i, p := range ports {
		peerSpecs = append(peerSpecs, fmt.Sprintf("%d=127.0.0.1:%d", i, p))
	}
	peers := strings.Join(peerSpecs, ",")
	tl, err := gonet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	httpAddr := tl.Addr().String()
	tl.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	// Every process gets the SAME -duration: the fault plan is derived from
	// it, so like -seed and -period it must agree across the deployment.
	warmup := 700 * time.Millisecond
	outs := make([]bytes.Buffer, soakN)
	cmds := make([]*exec.Cmd, soakN)
	for i := soakN - 1; i >= 0; i-- { // source last: its peers should be listening
		args := []string{
			"-id", strconv.Itoa(i),
			"-listen", fmt.Sprintf("127.0.0.1:%d", ports[i]),
			"-peers", peers,
			"-seed", strconv.Itoa(soakSeed),
			"-f", strconv.Itoa(soakN - 1),
			"-period", soakTg.String(),
			"-m", strconv.Itoa(soakN),
			"-eta", fmt.Sprintf("%g", soakEta),
			"-grace", "8",
			"-warmup", warmup.String(),
			"-duration", soakDur.String(),
			"-soak",
		}
		if i == 1 {
			args = append(args, "-http", httpAddr)
		}
		cmd := exec.CommandContext(ctx, bin, args...)
		cmd.Stdout = &outs[i]
		cmd.Stderr = &outs[i]
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting node %d: %v", i, err)
		}
		cmds[i] = cmd
	}

	scrapeSoakGauges(t, httpAddr, soakDur)

	for i, cmd := range cmds {
		if err := cmd.Wait(); err != nil {
			t.Errorf("node %d exited with %v:\n%s", i, err, outs[i].String())
		}
	}

	// Each process must have announced the same plan (compared as
	// multisets), applied every event of it, and expelled nobody.
	var wantEvents, skewed int
	var wantChaos string
	for i := range outs {
		out := outs[i].String()
		if strings.Contains(out, "EXPEL") {
			t.Errorf("node %d expelled someone under the fault plan:\n%s", i, out)
		}
		events, applied := -1, -1
		var chaos []string
		for _, line := range strings.Split(out, "\n") {
			fields := strings.Fields(line)
			if len(fields) >= 4 && fields[0] == "SOAK" {
				fmt.Sscanf(fields[2], "events=%d", &events)
				if !strings.HasSuffix(fields[3], "=1.0000") {
					skewed++
				}
			}
			if len(fields) >= 3 && fields[0] == "CHAOS" {
				chaos = append(chaos, strings.Join(fields[2:], " "))
			}
			if len(fields) == 3 && fields[0] == "DONE" && fields[1] == strconv.Itoa(i) {
				fmt.Sscanf(fields[2], "chaos=%d", &applied)
			}
		}
		if events <= 0 {
			t.Fatalf("node %d announced no fault plan:\n%s", i, out)
		}
		if len(chaos) != events {
			t.Errorf("node %d announced %d of %d planned events", i, len(chaos), events)
		}
		if applied != events {
			t.Errorf("node %d applied %d of %d planned events (-1: it never completed):\n%s", i, applied, events, out)
		}
		sort.Strings(chaos)
		plan := strings.Join(chaos, ";")
		if i == 0 {
			wantEvents, wantChaos = events, plan
		} else if events != wantEvents || plan != wantChaos {
			t.Errorf("node %d derived a different plan:\n%s\nvs\n%s", i, plan, wantChaos)
		}
	}
	for _, kind := range []string{"crash", "restart", "partition", "heal", "loss-burst", "loss-heal"} {
		if !strings.Contains(wantChaos, kind+" ") {
			t.Errorf("deployment plan missing a %s event: %s", kind, wantChaos)
		}
	}
	if skewed == 0 {
		t.Error("no process reported a skewed clock; the deployment schedule skews 2")
	}
	t.Logf("soak: %d processes applied %d events each (%d skewed clocks): %s",
		soakN, wantEvents, skewed, wantChaos)
}

// TestMultiProcessSoakHandoff is the handoff across processes: three
// daemons started with -soak, M = 3 (each node managed by the other two), a
// freerider never expelled (η out of reach), and the plan's one crash. The
// crashed node's restart gives its fresh manager the freerider back, and the
// source's manager, which kept it, pushes its copy over UDP: at the end the
// restarted node's copy must be the source's — the blame history from period
// 0 — not a fresh entry begun at the restart. The crashed node is started
// first and the others only once it listens, so its clock, and with it its
// restart, leads theirs: a copy pushed to it arrives when it is back up.
func TestMultiProcessSoakHandoff(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process handoff test is slow")
	}
	// Seed 13's plan crashes node 2 and restarts it with its links clear:
	// its partition and the loss burst come later and hit node 1. A plan
	// that cut the crashed node off across its restart would drop the push.
	const (
		n        = 3
		seed     = 13
		period   = 200 * time.Millisecond
		duration = 6 * time.Second
		warmup   = 500 * time.Millisecond
	)
	plan := chaos.Generate(chaos.DeploymentConfig(seed, duration, period, []msg.NodeID{1, 2}))
	var crashed msg.NodeID
	var restartAt time.Duration
	for _, ev := range plan.Events {
		switch ev.Kind {
		case chaos.Crash:
			if crashed != 0 || len(ev.Nodes) != 1 {
				t.Fatalf("the plan must crash one node once: %+v", plan.Events)
			}
			crashed = ev.Nodes[0]
		case chaos.Restart:
			restartAt = ev.At + warmup
		case chaos.Partition, chaos.LossBurst:
			if restartAt == 0 && slices.Contains(ev.Nodes, crashed) {
				t.Fatalf("the plan cuts the crashed node off before its restart: %+v", plan.Events)
			}
		}
	}
	if crashed == 0 || restartAt == 0 {
		t.Fatalf("the plan crashes and restarts no node: %+v", plan.Events)
	}
	rider := 3 - crashed // the other non-source node

	bin := filepath.Join(t.TempDir(), "lifting-node")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building lifting-node: %v\n%s", err, out)
	}
	ports := make([]int, n)
	for i := range ports {
		c, err := gonet.ListenUDP("udp", &gonet.UDPAddr{IP: gonet.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		ports[i] = c.LocalAddr().(*gonet.UDPAddr).Port
		c.Close()
	}
	var peerSpecs []string
	for i, p := range ports {
		peerSpecs = append(peerSpecs, fmt.Sprintf("%d=127.0.0.1:%d", i, p))
	}

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	outs := make([]bytes.Buffer, n)
	exited := make([]chan error, n)
	// start launches node i; its output also goes to listen, if non-nil.
	start := func(i msg.NodeID, listen io.WriteCloser) {
		args := []string{
			"-id", strconv.Itoa(int(i)),
			"-listen", fmt.Sprintf("127.0.0.1:%d", ports[i]),
			"-peers", strings.Join(peerSpecs, ","),
			"-seed", strconv.Itoa(seed),
			"-f", strconv.Itoa(n - 1),
			"-period", period.String(),
			"-m", strconv.Itoa(n),
			"-eta", "-1000",
			"-grace", "8",
			"-warmup", warmup.String(),
			"-duration", duration.String(),
			"-soak",
		}
		if i == rider {
			args = append(args, "-freeride", "0.5")
		}
		cmd := exec.CommandContext(ctx, bin, args...)
		var out io.Writer = &outs[i]
		if listen != nil {
			out = io.MultiWriter(&outs[i], listen)
		}
		cmd.Stdout, cmd.Stderr = out, out
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting node %d: %v", i, err)
		}
		exited[i] = make(chan error, 1)
		go func() {
			err := cmd.Wait()
			if listen != nil {
				listen.Close()
			}
			exited[i] <- err
		}()
	}
	// The crashed node first; the others once its LISTEN line shows its
	// clock running; the source last.
	pr, pw := io.Pipe()
	start(crashed, pw)
	lines := bufio.NewScanner(pr)
	for lines.Scan() && !strings.HasPrefix(lines.Text(), "LISTEN ") {
	}
	go func() {
		for lines.Scan() {
		}
	}()
	start(rider, nil)
	start(0, nil)

	copies := make(map[msg.NodeID]string) // holder → its copy of the rider
	for i := range exited {
		if err := <-exited[i]; err != nil {
			t.Errorf("node %d exited with %v:\n%s", i, err, outs[i].String())
		}
		for _, line := range strings.Split(outs[i].String(), "\n") {
			if f := strings.Fields(line); len(f) == 6 && f[0] == "COPY" && f[2] == strconv.Itoa(int(rider)) {
				copies[msg.NodeID(i)] = strings.Join(f[3:], " ")
			}
		}
	}
	kept, restarted := copies[0], copies[crashed]
	t.Logf("copies of freerider %d (blame join expelled): source %q, node %d (restarted at %v) %q",
		rider, kept, crashed, restartAt, restarted)
	var blame float64
	var join int
	if _, err := fmt.Sscanf(kept, "%g %d", &blame, &join); err != nil || blame == 0 || join != 0 {
		t.Fatalf("the source holds %q for freerider %d: want a blamed copy from period 0", kept, rider)
	}
	if _, err := fmt.Sscanf(restarted, "%g %d", &blame, &join); err != nil || join != 0 || blame == 0 {
		t.Errorf("restarted node %d holds %q for freerider %d: want the blamed copy from period 0 the source pushed, not a fresh entry:\n%s",
			crashed, restarted, rider, outs[crashed].String())
	}
}

// scrapeSoakGauges polls a soaking node's /metrics until stream traffic is
// flowing, then checks the two gauges the long-running soak harness records:
// heap-in-use (RSS stand-in) must be a sane nonzero size and the
// period-drift gauge must be present and small — the period clock tracks
// wall time even while the fault plan runs.
func scrapeSoakGauges(t *testing.T, addr string, budget time.Duration) {
	t.Helper()
	client := &http.Client{Timeout: 2 * time.Second}
	deadline := time.Now().Add(budget)
	var exposition string
	for {
		var err error
		resp, err := client.Get("http://" + addr + "/metrics")
		if err == nil {
			body, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr == nil {
				exposition = string(body)
			}
		}
		if strings.Contains(exposition, "lifting_useful_chunks_total ") &&
			!strings.Contains(exposition, "\nlifting_useful_chunks_total 0\n") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no useful-chunk traffic on the soaking node before deadline (err=%v):\n%s", err, exposition)
		}
		time.Sleep(100 * time.Millisecond)
	}
	sample := func(name string) float64 {
		for _, line := range strings.Split(exposition, "\n") {
			if rest, ok := strings.CutPrefix(line, name+" "); ok {
				v, err := strconv.ParseFloat(rest, 64)
				if err != nil {
					t.Fatalf("unparseable %s sample %q: %v", name, rest, err)
				}
				return v
			}
		}
		t.Fatalf("/metrics missing %s:\n%s", name, exposition)
		return 0
	}
	heap := sample("lifting_process_heap_bytes")
	if heap < 1<<18 || heap > 1<<33 {
		t.Errorf("lifting_process_heap_bytes = %g, not a sane process heap", heap)
	}
	drift := sample("lifting_period_drift_periods")
	if drift < -20 || drift > 20 {
		t.Errorf("lifting_period_drift_periods = %g, period clock unmoored from wall clock", drift)
	}
	t.Logf("soak gauges: heap %.0f bytes, drift %.2f periods", heap, drift)
}

// scrapeGateway downloads stream bytes through a running node's HTTP
// gateway and verifies them end-to-end: every payload must match the
// canonical content generation for the deployment seed, whether it came
// from the node's own chunk store (gossip-delivered) or was fetched through
// the upstream chain from the source's origin gateway. It must finish
// before the node's -duration elapses, so it retries quickly.
func scrapeGateway(t *testing.T, gwAddr string) {
	t.Helper()
	base := "http://" + gwAddr
	client := &http.Client{Timeout: 2 * time.Second}
	// The content seed every process derives from the shared -seed; the test
	// regenerates the canonical payloads independently from it.
	contentSeed := rng.New(scenSeed).Derive("content").Seed()
	deadline := time.Now().Add(scenDur)

	// A chunk far beyond the streamed range: never gossiped, so it can only
	// arrive through the upstream chain — node 2's gateway falls back to the
	// source's gateway, whose origin regenerates it. FetchChunk verifies the
	// payload against the advertised hash; the test re-verifies against the
	// canonical bytes.
	const farChunk = msg.ChunkID(1 << 20)
	var payload []byte
	for {
		var err error
		payload, _, err = gateway.FetchChunk(client, base, farChunk)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("gateway upstream fetch of chunk %d never succeeded: %v", farChunk, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
	if want := content.Generate(contentSeed, farChunk, 1316); !bytes.Equal(payload, want) {
		t.Fatalf("upstream-fetched chunk %d differs from canonical generation", farChunk)
	}

	// Wait until gossip has delivered chunks into node 2's store, then
	// download the newest one the gateway advertises and verify it too.
	var have []uint32
	var newest msg.ChunkID
	for {
		resp, err := client.Get(base + "/stream/have")
		if err == nil {
			err = json.NewDecoder(resp.Body).Decode(&have)
			resp.Body.Close()
		}
		// /stream/have unions the store with the gateway cache, which
		// already holds farChunk — only a different id proves the gossip
		// plane delivered payload bytes into this node's store.
		found := false
		for _, id := range have {
			if msg.ChunkID(id) != farChunk {
				newest, found = msg.ChunkID(id), true
			}
		}
		if err == nil && found {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no gossip-delivered chunk on /stream/have before deadline (err=%v, have=%v)", err, have)
		}
		time.Sleep(100 * time.Millisecond)
	}
	payload, _, err := gateway.FetchChunk(client, base, newest)
	if err != nil {
		t.Fatalf("fetching gossip-delivered chunk %d: %v", newest, err)
	}
	if want := content.Generate(contentSeed, newest, 1316); !bytes.Equal(payload, want) {
		t.Fatalf("gossip-delivered chunk %d differs from canonical generation", newest)
	}

	resp, err := client.Get(base + "/stream/stats")
	if err != nil {
		t.Fatalf("gateway /stream/stats: %v", err)
	}
	var st gateway.Stats
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("gateway stats JSON: %v", err)
	}
	if st.Requests < 2 || st.BytesServed == 0 {
		t.Fatalf("gateway stats = %+v, want >=2 requests and nonzero bytes", st)
	}
	t.Logf("gateway: verified upstream chunk %d and store chunk %d (%d chunks advertised, %d bytes served)",
		farChunk, newest, len(have), st.BytesServed)
}

// scrapeObservability polls a running node's /metrics and /status until the
// node is past warmup and traffic counters are nonzero, then asserts the
// exposition is well-formed and the status document is coherent. It must
// finish before the node's -duration elapses, so it retries quickly.
func scrapeObservability(t *testing.T, addr string) {
	t.Helper()
	client := &http.Client{Timeout: 2 * time.Second}
	get := func(path string) (string, string, error) {
		resp, err := client.Get("http://" + addr + path)
		if err != nil {
			return "", "", err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return "", "", err
		}
		if resp.StatusCode != http.StatusOK {
			return "", "", fmt.Errorf("%s: status %d", path, resp.StatusCode)
		}
		return string(body), resp.Header.Get("Content-Type"), nil
	}

	// The per-kind counters only emit samples once nonzero, so polling for
	// the full sample set doubles as the nonzero-traffic check. Polling (not
	// a single scrape after one counter goes nonzero) matters on a loaded
	// machine: a starved node can have received serves before it ever sent
	// its first propose.
	wantSamples := []string{
		"lifting_verification_overhead_ratio ",
		"lifting_duplicate_chunks_total",
		"lifting_useful_chunks_total ",
		`lifting_sent_messages_total{kind="propose"} `,
		`lifting_recv_messages_total{kind="serve"} `,
		"lifting_protocol_bytes_total ",
		"lifting_verification_bytes_total ",
		"lifting_serve_latency_seconds_count ",
	}
	missing := func(s string) string {
		for _, name := range wantSamples {
			if !strings.Contains(s, name) {
				return name
			}
		}
		return ""
	}
	var exposition, ctype string
	deadline := time.Now().Add(scenDur)
	for {
		var err error
		exposition, ctype, err = get("/metrics")
		if err == nil && missing(exposition) == "" &&
			!strings.Contains(exposition, "\nlifting_useful_chunks_total 0\n") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/metrics incomplete before deadline (err=%v, first missing %q):\n%s",
				err, missing(exposition), exposition)
		}
		time.Sleep(100 * time.Millisecond)
	}

	if !strings.HasPrefix(ctype, "text/plain; version=0.0.4") {
		t.Errorf("/metrics Content-Type = %q", ctype)
	}
	// Well-formed text exposition: every line is a comment or `name[{labels}]
	// value` with a parseable value.
	for _, line := range strings.Split(strings.TrimRight(exposition, "\n"), "\n") {
		if strings.HasPrefix(line, "# ") || line == "" {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Errorf("malformed exposition line %q", line)
			continue
		}
		if _, err := strconv.ParseFloat(line[sp+1:], 64); err != nil {
			t.Errorf("unparseable sample value in line %q: %v", line, err)
		}
	}

	status, sctype, err := get("/status")
	if err != nil {
		t.Fatalf("/status: %v", err)
	}
	if !strings.HasPrefix(sctype, "application/json") {
		t.Errorf("/status Content-Type = %q", sctype)
	}
	var st struct {
		NodeID        uint32  `json:"node_id"`
		Period        uint64  `json:"period"`
		Members       int     `json:"members"`
		PeerBookSize  int     `json:"peer_book_size"`
		UptimeSeconds float64 `json:"uptime_seconds"`
	}
	if err := json.Unmarshal([]byte(status), &st); err != nil {
		t.Fatalf("/status is not JSON: %v\n%s", err, status)
	}
	if st.NodeID != 1 {
		t.Errorf("/status node_id = %d, want 1", st.NodeID)
	}
	if st.Members != scenN {
		t.Errorf("/status members = %d, want %d", st.Members, scenN)
	}
	// The book carries the 4 configured peers plus our own bound address,
	// which the transport registers when the node joins.
	if st.PeerBookSize != scenN {
		t.Errorf("/status peer_book_size = %d, want %d", st.PeerBookSize, scenN)
	}
	if st.UptimeSeconds <= 0 {
		t.Errorf("/status uptime_seconds = %v", st.UptimeSeconds)
	}
	t.Logf("scraped /metrics (%d bytes) and /status: period %d, %d members",
		len(exposition), st.Period, st.Members)
}
