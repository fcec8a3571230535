package gateway

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"lifting/internal/content"
	"lifting/internal/msg"
)

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	return resp, body
}

func TestServeFromStoreThenCache(t *testing.T) {
	src := content.NewSource(11, 1316)
	store := content.NewStore(8)
	payload, hash := src.Chunk(3)
	store.Put(3, payload, hash)

	g := New(Options{Store: store})
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()

	resp, body := get(t, ts.URL+"/stream/chunk/3")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if !bytes.Equal(body, payload) {
		t.Fatal("served payload differs from stored payload")
	}
	if got := resp.Header.Get(HashHeader); got != fmt.Sprintf("%016x", hash) {
		t.Fatalf("%s = %q, want %016x", HashHeader, got, hash)
	}
	if got := resp.Header.Get(SourceHeader); got != "store" {
		t.Fatalf("%s = %q, want store", SourceHeader, got)
	}

	// A repeat of the same chunk is a cache hit: the store is not consulted.
	resp, _ = get(t, ts.URL+"/stream/chunk/3")
	if got := resp.Header.Get(SourceHeader); got != "cache" {
		t.Fatalf("repeat %s = %q, want cache", SourceHeader, got)
	}
	st := g.Stats()
	if st.StoreHits != 1 || st.CacheHits != 1 || st.Requests != 2 {
		t.Fatalf("stats = %+v, want 1 store hit, 1 cache hit, 2 requests", st)
	}
	if st.BytesServed != uint64(2*len(payload)) {
		t.Fatalf("bytes served = %d, want %d", st.BytesServed, 2*len(payload))
	}
}

func TestOriginRegeneratesAnyChunk(t *testing.T) {
	src := content.NewSource(42, 512)
	g := New(Options{Origin: src})
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()

	// Chunk 9999 was never stored anywhere; the origin regenerates it.
	resp, body := get(t, ts.URL+"/stream/chunk/9999")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	want := content.Generate(42, 9999, 512)
	if !bytes.Equal(body, want) {
		t.Fatal("origin payload differs from canonical generation")
	}
	if got := resp.Header.Get(SourceHeader); got != "origin" {
		t.Fatalf("%s = %q, want origin", SourceHeader, got)
	}
}

func TestMissAndBadRequest(t *testing.T) {
	g := New(Options{Store: content.NewStore(4)})
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()

	resp, _ := get(t, ts.URL+"/stream/chunk/7")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing chunk status = %d, want 404", resp.StatusCode)
	}
	resp, _ = get(t, ts.URL+"/stream/chunk/notanumber")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad id status = %d, want 400", resp.StatusCode)
	}
	if st := g.Stats(); st.Misses != 1 {
		t.Fatalf("misses = %d, want 1", st.Misses)
	}
}

func TestUpstreamChainVerifiesAndCaches(t *testing.T) {
	src := content.NewSource(7, 1024)
	originGW := New(Options{Origin: src})
	originTS := httptest.NewServer(originGW.Handler())
	defer originTS.Close()

	edge := New(Options{Upstream: originTS.URL})
	edgeTS := httptest.NewServer(edge.Handler())
	defer edgeTS.Close()

	want, wantHash := src.Chunk(5)
	payload, hash, err := FetchChunk(nil, edgeTS.URL, 5)
	if err != nil {
		t.Fatalf("fetch through edge: %v", err)
	}
	if !bytes.Equal(payload, want) || hash != wantHash {
		t.Fatal("edge delivered wrong payload or hash")
	}
	if st := edge.Stats(); st.UpstreamHits != 1 {
		t.Fatalf("edge upstream hits = %d, want 1", st.UpstreamHits)
	}
	// The edge now holds the chunk: a repeat is a local cache hit.
	if _, _, err := FetchChunk(nil, edgeTS.URL, 5); err != nil {
		t.Fatalf("repeat fetch: %v", err)
	}
	if st := edge.Stats(); st.CacheHits != 1 {
		t.Fatalf("edge cache hits = %d, want 1", st.CacheHits)
	}
}

func TestUpstreamCorruptionRejected(t *testing.T) {
	// An upstream that serves corrupted bytes under a truthful hash header
	// must be rejected by the edge's verification, surfacing as a 404.
	evil := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		good := content.Generate(7, 5, 1024)
		w.Header().Set(HashHeader, fmt.Sprintf("%016x", content.HashBytes(good)))
		good[0] ^= 0xff
		_, _ = w.Write(good)
	}))
	defer evil.Close()

	edge := New(Options{Upstream: evil.URL})
	ts := httptest.NewServer(edge.Handler())
	defer ts.Close()

	resp, _ := get(t, ts.URL+"/stream/chunk/5")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("corrupted upstream chunk status = %d, want 404", resp.StatusCode)
	}
	if st := edge.Stats(); st.Misses != 1 || st.UpstreamHits != 0 {
		t.Fatalf("stats = %+v, want a miss and no upstream hit", st)
	}
}

func TestHaveEndpoint(t *testing.T) {
	src := content.NewSource(3, 64)
	store := content.NewStore(8)
	for _, c := range []msg.ChunkID{1, 4, 6} {
		p, h := src.Chunk(c)
		store.Put(c, p, h)
	}
	g := New(Options{Store: store})
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()

	_, body := get(t, ts.URL+"/stream/have")
	var ids []uint32
	if err := json.Unmarshal(body, &ids); err != nil {
		t.Fatalf("have JSON: %v", err)
	}
	if len(ids) != 3 {
		t.Fatalf("have = %v, want 3 ids", ids)
	}
}

// TestGatewayConcurrentLoad is the load smoke CI runs with -race: a few
// hundred concurrent HTTP clients against one loopback gateway, asserting
// every request succeeds with verified bytes, goodput is nonzero, and the
// server's goroutines drain after Close (no leak).
func TestGatewayConcurrentLoad(t *testing.T) {
	baseline := runtime.NumGoroutine()

	src := content.NewSource(99, 1316)
	store := content.NewStore(64)
	for c := msg.ChunkID(0); c < 16; c++ {
		p, h := src.Chunk(c)
		store.Put(c, p, h)
	}
	g := New(Options{Store: store, CacheCapacity: 64})
	addr, err := g.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr

	const clients = 300
	client := &http.Client{Timeout: 10 * time.Second}
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		c := msg.ChunkID(i % 16)
		wg.Add(1)
		go func() {
			defer wg.Done()
			payload, _, err := FetchChunk(client, base, c)
			if err != nil {
				errs <- err
				return
			}
			want, _ := src.Chunk(c)
			if !bytes.Equal(payload, want) {
				errs <- fmt.Errorf("chunk %d: payload mismatch", c)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := g.Stats()
	if st.Requests != clients {
		t.Fatalf("requests = %d, want %d", st.Requests, clients)
	}
	if st.BytesServed != uint64(clients*1316) {
		t.Fatalf("bytes served = %d, want %d (nonzero goodput, all verified)", st.BytesServed, clients*1316)
	}
	if st.Misses != 0 {
		t.Fatalf("misses = %d, want 0", st.Misses)
	}

	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	client.CloseIdleConnections()
	// The server's per-connection goroutines drain after Close; allow a
	// little slack for the runtime's own background goroutines.
	if !within(5*time.Second, func() bool { return runtime.NumGoroutine() <= baseline+5 }) {
		t.Fatalf("goroutines did not drain: %d now vs %d at start", runtime.NumGoroutine(), baseline)
	}
}
