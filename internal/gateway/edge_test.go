package gateway

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lifting/internal/content"
	"lifting/internal/msg"
)

// countingServer starts h on a loopback server that counts the TCP
// connections it accepts.
func countingServer(t *testing.T, h http.Handler) (*httptest.Server, *atomic.Int32) {
	t.Helper()
	conns := new(atomic.Int32)
	ts := httptest.NewUnstartedServer(h)
	ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)
	return ts, conns
}

// A 404 leaves its keep-alive connection usable: twenty misses in a row
// cost one TCP connection, not twenty.
func TestFetchChunkKeepsConnectionOnMiss(t *testing.T) {
	ts, conns := countingServer(t, New(Options{Store: content.NewStore(4)}).Handler())
	client := &http.Client{Transport: &http.Transport{}, Timeout: 5 * time.Second}
	defer client.CloseIdleConnections()
	for i := 0; i < 20; i++ {
		if _, _, err := FetchChunk(client, ts.URL, 7); err == nil {
			t.Fatal("a missing chunk fetched without error")
		}
	}
	if n := conns.Load(); n != 1 {
		t.Fatalf("20 misses opened %d connections, want 1", n)
	}
}

// An edge keeps as many idle upstream connections as it had concurrent
// misses: three rounds of eight concurrent distinct misses dial the
// upstream at most eight times. The upstream holds each round until all
// eight of its fetches have arrived, so every round needs eight connections
// at once.
func TestUpstreamKeepsIdleConnections(t *testing.T) {
	const rounds, perRound = 3, 8
	src := content.NewSource(5, 512)
	var mu sync.Mutex
	release := make(chan struct{})
	arrived := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("GET /stream/chunk/{id}", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		hold := release
		mu.Unlock()
		arrived <- struct{}{}
		<-hold
		id, err := strconv.ParseUint(r.PathValue("id"), 10, 32)
		if err != nil {
			http.Error(w, "bad chunk id", http.StatusBadRequest)
			return
		}
		payload, hash := src.Chunk(msg.ChunkID(id))
		w.Header().Set(HashHeader, fmt.Sprintf("%016x", hash))
		_, _ = w.Write(payload)
	})
	upstream, conns := countingServer(t, mux)

	edge := New(Options{Upstream: upstream.URL})
	defer edge.Close()
	edgeTS := httptest.NewServer(edge.Handler())
	defer edgeTS.Close()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: perRound}, Timeout: 10 * time.Second}
	defer client.CloseIdleConnections()

	for round := 0; round < rounds; round++ {
		errs := make(chan error, perRound)
		for i := 0; i < perRound; i++ {
			c := msg.ChunkID(round*perRound + i)
			go func() {
				payload, _, err := FetchChunk(client, edgeTS.URL, c)
				if want, _ := src.Chunk(c); err == nil && !bytes.Equal(payload, want) {
					err = fmt.Errorf("chunk %d: wrong payload", c)
				}
				errs <- err
			}()
		}
		for i := 0; i < perRound; i++ {
			<-arrived
		}
		mu.Lock()
		close(release)
		release = make(chan struct{})
		mu.Unlock()
		for i := 0; i < perRound; i++ {
			if err := <-errs; err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
	}
	if n := conns.Load(); n > perRound {
		t.Fatalf("%d rounds of %d concurrent misses opened %d upstream connections, want ≤ %d", rounds, perRound, n, perRound)
	}
}

// nopWriter is a reusable http.ResponseWriter that discards the body.
type nopWriter struct{ h http.Header }

func (w *nopWriter) Header() http.Header         { return w.h }
func (w *nopWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *nopWriter) WriteHeader(int)             {}

// A cache hit through Handler allocates at most once — the mux's match of
// {id}: the response header values are shared, not formatted or Set.
func TestHandlerHitAllocs(t *testing.T) {
	src := content.NewSource(23, 1316)
	h := New(Options{Origin: src, CacheCapacity: 128}).Handler()
	req := httptest.NewRequest(http.MethodGet, "/stream/chunk/5", nil)
	w := &nopWriter{h: http.Header{}}
	h.ServeHTTP(w, req) // the miss fills the cache
	if a := testing.AllocsPerRun(1000, func() { h.ServeHTTP(w, req) }); a > 1 {
		t.Fatalf("a cache hit through Handler allocates %v, want ≤ 1", a)
	}
	_, hash := src.Chunk(5)
	if got := w.h.Get(SourceHeader); got != "cache" {
		t.Fatalf("%s = %q, want cache", SourceHeader, got)
	}
	if got := w.h.Get(HashHeader); got != fmt.Sprintf("%016x", hash) {
		t.Fatalf("%s = %q, want %016x", HashHeader, got, hash)
	}
	if got := w.h.Get("Content-Type"); got != "application/octet-stream" {
		t.Fatalf("Content-Type = %q", got)
	}
}

// FetchChunk's body bounds: an advertised length past msg.MaxChunkPayload is
// refused, a body cut short under its Content-Length is an error and never
// reaches an edge's cache, and a chunked body still verifies through the
// limited fallback — unless it runs past the bound.
func TestFetchChunkLengthBounds(t *testing.T) {
	src := content.NewSource(9, 1024)
	payload, hash := src.Chunk(5)
	hashHdr := fmt.Sprintf("%016x", hash)
	serve := func(h http.HandlerFunc) string {
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		return ts.URL
	}

	t.Run("advertised too long", func(t *testing.T) {
		big := make([]byte, msg.MaxChunkPayload+1)
		url := serve(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set(HashHeader, fmt.Sprintf("%016x", content.HashBytes(big)))
			w.Header().Set("Content-Length", strconv.Itoa(len(big)))
			_, _ = w.Write(big)
		})
		if _, _, err := FetchChunk(nil, url, 5); err == nil || !strings.Contains(err.Error(), "advertised") {
			t.Fatalf("a body advertised past MaxChunkPayload: err %v, want it refused on its length", err)
		}
	})

	t.Run("cut short", func(t *testing.T) {
		url := serve(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set(HashHeader, hashHdr)
			w.Header().Set("Content-Length", strconv.Itoa(len(payload)+100))
			_, _ = w.Write(payload)
		})
		if _, _, err := FetchChunk(nil, url, 5); err == nil {
			t.Fatal("a body cut short under its Content-Length was accepted")
		}
		edge := New(Options{Upstream: url})
		defer edge.Close()
		edgeURL := serve(edge.Handler().ServeHTTP)
		if _, _, err := FetchChunk(nil, edgeURL, 5); err == nil {
			t.Fatal("the edge served a chunk its upstream cut short")
		}
		if _, ok := edge.cache.get(5); ok {
			t.Fatal("a cut-short body entered the edge's cache")
		}
	})

	chunked := func(body []byte, hashHdr string) string {
		return serve(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set(HashHeader, hashHdr)
			_, _ = w.Write(body[:len(body)/2])
			w.(http.Flusher).Flush() // no length known yet: chunked
			_, _ = w.Write(body[len(body)/2:])
		})
	}
	t.Run("chunked", func(t *testing.T) {
		url := chunked(payload, hashHdr)
		resp, err := http.Get(url + "/stream/chunk/5")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.ContentLength != -1 {
			t.Fatalf("the chunked upstream advertised %d bytes", resp.ContentLength)
		}
		got, gotHash, err := FetchChunk(nil, url, 5)
		if err != nil || !bytes.Equal(got, payload) || gotHash != hash {
			t.Fatalf("chunked body: err %v, payload equal %v, hash %x", err, bytes.Equal(got, payload), gotHash)
		}
	})

	t.Run("chunked too long", func(t *testing.T) {
		big := make([]byte, msg.MaxChunkPayload+1)
		if _, _, err := FetchChunk(nil, chunked(big, fmt.Sprintf("%016x", content.HashBytes(big))), 5); err == nil {
			t.Fatal("a chunked body past MaxChunkPayload was accepted")
		}
	})
}
