package gateway

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lifting/internal/content"
)

// TestMidChainCorruptionDoesNotPoison drives a three-tier chain — origin →
// mid → edge — where the mid tier corrupts payloads for a while: the edge
// must reject every corrupted chunk (hash verification), must not cache the
// rejected bytes, and must serve the correct payload as soon as the mid
// tier heals, proving a transient corrupting hop leaves no poison behind.
func TestMidChainCorruptionDoesNotPoison(t *testing.T) {
	src := content.NewSource(7, 1024)
	originGW := New(Options{Origin: src})
	originTS := httptest.NewServer(originGW.Handler())
	defer originTS.Close()

	// The mid tier proxies the origin but flips a payload byte while
	// corrupt is set — a byzantine relay, not a byzantine origin.
	var corrupt atomic.Bool
	corrupt.Store(true)
	mid := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		payload, hash, err := FetchChunk(nil, originTS.URL, 5)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		if corrupt.Load() {
			payload = append([]byte(nil), payload...)
			payload[0] ^= 0xff
		}
		w.Header().Set(HashHeader, fmt.Sprintf("%016x", hash))
		_, _ = w.Write(payload)
	}))
	defer mid.Close()

	edge := New(Options{Upstream: mid.URL})
	edgeTS := httptest.NewServer(edge.Handler())
	defer edgeTS.Close()

	for i := 0; i < 3; i++ {
		if _, _, err := FetchChunk(nil, edgeTS.URL, 5); err == nil {
			t.Fatal("edge served a chunk corrupted mid-chain")
		}
	}
	if st := edge.Stats(); st.Misses != 3 || st.CacheHits != 0 {
		t.Fatalf("stats = %+v, want 3 misses and no cache hit — corrupt bytes must not enter the cache", st)
	}

	corrupt.Store(false)
	payload, _, err := FetchChunk(nil, edgeTS.URL, 5)
	if err != nil {
		t.Fatalf("fetch after the mid tier healed: %v", err)
	}
	if want, _ := src.Chunk(5); !bytes.Equal(payload, want) {
		t.Fatal("edge served wrong bytes after the heal")
	}
	if st := edge.Stats(); st.UpstreamHits != 1 {
		t.Fatalf("upstream hits = %d, want exactly 1 after the heal", st.UpstreamHits)
	}
}

// TestClientDisconnectDuringSingleflight pins the miss-dedup path under a
// departing leader: the first client to miss a chunk starts the upstream
// fetch and disconnects before it finishes, while followers are parked on
// the same flight. The followers must still receive the verified payload,
// and the flight table must drain — no entry stuck behind a dead client.
func TestClientDisconnectDuringSingleflight(t *testing.T) {
	src := content.NewSource(13, 512)
	arrived, release := make(chan struct{}, 1), make(chan struct{})
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case arrived <- struct{}{}:
		default:
		}
		<-release // hold every fetch until the leader has gone away
		payload, hash := src.Chunk(9)
		w.Header().Set(HashHeader, fmt.Sprintf("%016x", hash))
		_, _ = w.Write(payload)
	}))
	defer upstream.Close()

	edge := New(Options{Upstream: upstream.URL})
	edgeTS := httptest.NewServer(edge.Handler())
	defer edgeTS.Close()

	// Leader: cancels its request while the upstream fetch is in flight.
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderDone := make(chan error, 1)
	go func() {
		req, _ := http.NewRequestWithContext(leaderCtx, "GET", edgeTS.URL+"/stream/chunk/9", nil)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		leaderDone <- err
	}()

	// Followers: join the same flight while the leader's fetch is parked.
	const followers = 4
	var wg sync.WaitGroup
	errs := make(chan error, followers)
	<-arrived // the leader's fetch is at the upstream
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			payload, _, err := FetchChunk(nil, edgeTS.URL, 9)
			if err != nil {
				errs <- err
				return
			}
			if want, _ := src.Chunk(9); !bytes.Equal(payload, want) {
				errs <- fmt.Errorf("follower got wrong payload")
			}
		}()
	}
	// Park the followers on the flight: each is in the handler, and the
	// flight only ends once release is closed.
	if !within(5*time.Second, func() bool { return edge.Stats().Requests == 1+followers }) {
		t.Fatalf("%d of %d requests reached the edge", edge.Stats().Requests, 1+followers)
	}
	cancelLeader()
	<-leaderDone // leader is gone; the fetch it started is still running
	close(release)

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("follower after leader disconnect: %v", err)
	}
	edge.mu.Lock()
	inflight := len(edge.flight)
	edge.mu.Unlock()
	if inflight != 0 {
		t.Fatalf("%d flight entries stuck after all clients finished", inflight)
	}
	// The chunk landed in the cache despite the leader's departure.
	if _, ok := edge.cache.get(9); !ok {
		t.Fatal("fetched chunk never reached the cache")
	}
}

// TestGatewayCloseUnderLoad closes the gateway while slow requests are in
// flight: Close must not hang, and every server goroutine must drain even
// though clients were mid-response.
func TestGatewayCloseUnderLoad(t *testing.T) {
	baseline := runtime.NumGoroutine()

	arrived, release := make(chan struct{}, 1), make(chan struct{})
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case arrived <- struct{}{}:
		default:
		}
		<-release
		http.Error(w, "too late", http.StatusNotFound)
	}))
	defer upstream.Close()

	g := New(Options{Upstream: upstream.URL})
	addr, err := g.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	// A handful of clients blocked on the parked upstream fetch: one leads
	// it, the rest follow.
	const clients = 4
	var wg sync.WaitGroup
	client := &http.Client{Timeout: 10 * time.Second}
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := client.Get("http://" + addr + "/stream/chunk/1")
			if err == nil {
				resp.Body.Close()
			}
		}()
	}
	<-arrived
	if !within(5*time.Second, func() bool { return g.Stats().Requests == clients }) {
		t.Fatalf("%d of %d requests reached the gateway", g.Stats().Requests, clients)
	}

	closed := make(chan error, 1)
	go func() { closed <- g.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung behind in-flight requests")
	}
	close(release)
	wg.Wait()
	client.CloseIdleConnections()

	if !within(5*time.Second, func() bool { return runtime.NumGoroutine() <= baseline+5 }) {
		t.Fatalf("goroutines did not drain after Close: %d now vs %d at start", runtime.NumGoroutine(), baseline)
	}
}

// within polls cond every millisecond until it holds or d has passed, and
// reports whether it held.
func within(d time.Duration, cond func() bool) bool {
	deadline := time.NewTimer(d)
	defer deadline.Stop()
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for !cond() {
		select {
		case <-tick.C:
		case <-deadline.C:
			return cond()
		}
	}
	return true
}

// A hostile client bounds nothing but the header phase it is allowed: one
// that stalls mid request line is disconnected once readHeaderTimeout has
// passed, and a 64 KB header is answered 431 without reaching a handler.
func TestHeaderPhaseBounded(t *testing.T) {
	g := New(Options{Origin: content.NewSource(1, 64)})
	addr, err := g.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })

	t.Run("stalled request line", func(t *testing.T) {
		t.Parallel()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		start := time.Now()
		if _, err := io.WriteString(conn, "GET /stream/st"); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(start.Add(readHeaderTimeout + 2*time.Second))
		// The server may answer before it hangs up; it must hang up.
		if reply, err := io.ReadAll(conn); errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("half a request line still holds its connection after %v (read %q)", time.Since(start), reply)
		}
	})
	t.Run("oversized header", func(t *testing.T) {
		t.Parallel()
		req, err := http.NewRequest(http.MethodGet, "http://"+addr+"/stream/stats", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Padding", strings.Repeat("a", 64<<10))
		resp, err := (&http.Client{Timeout: 5 * time.Second}).Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestHeaderFieldsTooLarge {
			t.Fatalf("64 KB header: status %d, want 431", resp.StatusCode)
		}
	})
}

// An idle kept-alive connection is bounded too: one that sends nothing after
// its response is closed once idleTimeout has passed, instead of holding a
// server goroutine for as long as the client likes.
func TestIdleKeepAliveClosed(t *testing.T) {
	t.Parallel()
	g := New(Options{Origin: content.NewSource(1, 64)})
	addr, err := g.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /stream/stats HTTP/1.1\r\nHost: lifting\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.Close {
		t.Fatal("the server did not keep the connection alive; there is no idle phase to bound")
	}
	start := time.Now()
	conn.SetReadDeadline(start.Add(idleTimeout + 2*time.Second))
	if rest, err := io.ReadAll(br); errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("an idle kept-alive connection is still open after %v (read %q)", time.Since(start), rest)
	}
}
