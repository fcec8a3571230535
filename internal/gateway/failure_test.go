package gateway

import (
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
	release := make(chan struct{})
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
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
	time.Sleep(100 * time.Millisecond) // let the leader reach the upstream
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
	time.Sleep(100 * time.Millisecond) // park the followers on the flight
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
	if _, _, ok := edge.cache.Get(9); !ok {
		t.Fatal("fetched chunk never reached the cache")
	}
}

// TestGatewayCloseUnderLoad closes the gateway while slow requests are in
// flight: Close must not hang, and every server goroutine must drain even
// though clients were mid-response.
func TestGatewayCloseUnderLoad(t *testing.T) {
	baseline := runtime.NumGoroutine()

	release := make(chan struct{})
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
		http.Error(w, "too late", http.StatusNotFound)
	}))
	defer upstream.Close()

	g := New(Options{Upstream: upstream.URL})
	addr, err := g.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	// A handful of clients blocked on the parked upstream fetch.
	var wg sync.WaitGroup
	client := &http.Client{Timeout: 10 * time.Second}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := client.Get("http://" + addr + "/stream/chunk/1")
			if err == nil {
				resp.Body.Close()
			}
		}()
	}
	time.Sleep(100 * time.Millisecond)

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

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+5 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("goroutines did not drain after Close: %d now vs %d at start", runtime.NumGoroutine(), baseline)
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
