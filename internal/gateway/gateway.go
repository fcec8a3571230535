// Package gateway exposes a node's stream over HTTP: the bridge between the
// gossip content plane and ordinary HTTP clients (players, curl, tests).
//
// The design follows the proxy/cache/downloader split of BitTorrent-backed
// HTTP proxies: a request for a chunk is answered from the gateway's own
// bounded cache, then from the hosting node's chunk store, then — on the
// source node — regenerated from the canonical content source, and finally
// fetched from an upstream gateway over HTTP. Every payload that enters
// through the upstream path is verified against its advertised content hash
// before it is cached or served, so a chain of gateways preserves the same
// end-to-end integrity the gossip plane enforces.
//
// Routes:
//
//	GET /stream/chunk/{id}  the chunk payload (X-Lifting-Hash, X-Lifting-Source)
//	GET /stream/have        JSON array of chunk ids currently serveable locally
//	GET /stream/stats       JSON counters (requests, hit sources, bytes served)
package gateway

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"lifting/internal/content"
	"lifting/internal/msg"
)

// Header names of the chunk transfer.
const (
	// HashHeader carries the 64-bit content hash (content.HashBytes) as 16
	// hex digits.
	HashHeader = "X-Lifting-Hash"
	// SourceHeader reports where the payload came from: cache, store,
	// origin or upstream.
	SourceHeader = "X-Lifting-Source"
)

// Options configures a gateway.
type Options struct {
	// Store is the hosting node's chunk store (nil = no local store).
	Store *content.Store
	// Origin, if non-nil, regenerates any chunk on demand — set it on the
	// stream source's gateway only, where the canonical payloads are known.
	Origin *content.Source
	// Upstream is the base URL of another gateway to fall back to (e.g.
	// "http://127.0.0.1:8080"); empty disables the upstream path.
	Upstream string
	// CacheCapacity bounds the gateway's own chunk cache
	// (0 = content.DefaultStoreCapacity).
	CacheCapacity int
}

// The header phase is bounded far above what a bare GET needs: headers must
// arrive within readHeaderTimeout (from accept, or from a kept-alive
// connection's next first byte) and fit in maxHeaderBytes (else 431), or the
// connection is closed. A kept-alive connection that sends nothing for
// idleTimeout is closed too.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 5 * time.Second
	maxHeaderBytes    = 16 << 10
)

// Stats is a point-in-time snapshot of the gateway's counters.
type Stats struct {
	Requests     uint64 `json:"requests"`
	CacheHits    uint64 `json:"cache_hits"`
	StoreHits    uint64 `json:"store_hits"`
	OriginHits   uint64 `json:"origin_hits"`
	UpstreamHits uint64 `json:"upstream_hits"`
	Misses       uint64 `json:"misses"`
	BytesServed  uint64 `json:"bytes_served"`
}

// Gateway is an HTTP stream gateway. Create with New, serve with Start (or
// mount Handler under an existing server), stop with Close.
type Gateway struct {
	opts   Options
	cache  *edgeCache
	client *http.Client
	mux    *http.ServeMux
	srv    *http.Server

	mu     sync.Mutex
	flight map[msg.ChunkID]*flightCall

	requests     atomic.Uint64
	cacheHits    atomic.Uint64
	storeHits    atomic.Uint64
	originHits   atomic.Uint64
	upstreamHits atomic.Uint64
	misses       atomic.Uint64
	bytesServed  atomic.Uint64
}

// flightCall deduplicates concurrent misses on the same chunk: followers
// wait for the leader's fetch instead of hammering the store/upstream.
type flightCall struct {
	done chan struct{}
	e    entry
	src  []string
	ok   bool
}

// upstreamIdleConns bounds the keep-alive connections a gateway keeps to its
// upstream between fetches, so that many concurrent distinct misses reuse
// their connections on the next round instead of dialing again
// (http.DefaultTransport keeps 2 per host).
const upstreamIdleConns = 16

// New assembles a gateway.
func New(opts Options) *Gateway {
	upstream := http.DefaultTransport.(*http.Transport).Clone()
	upstream.MaxIdleConnsPerHost = upstreamIdleConns
	g := &Gateway{
		opts:   opts,
		cache:  newEdgeCache(opts.CacheCapacity),
		client: &http.Client{Timeout: 5 * time.Second, Transport: upstream},
		flight: make(map[msg.ChunkID]*flightCall),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET "+chunkPath+"{id}", g.handleChunk)
	mux.HandleFunc("GET /stream/have", g.handleHave)
	mux.HandleFunc("GET /stream/stats", g.handleStats)
	g.mux = mux
	return g
}

// Handler returns the gateway's HTTP handler, for mounting under an
// existing server.
func (g *Gateway) Handler() http.Handler { return g.mux }

// Start binds addr (host:port, port 0 for ephemeral) and serves until Close.
// It returns the bound address.
func (g *Gateway) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("gateway: %w", err)
	}
	g.srv = &http.Server{Handler: g.mux, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout, MaxHeaderBytes: maxHeaderBytes}
	go func() { _ = g.srv.Serve(ln) }()
	return ln.Addr().String(), nil
}

// Close stops the HTTP server and drops the idle upstream connections.
// Safe to call without Start.
func (g *Gateway) Close() error {
	g.client.CloseIdleConnections()
	if g.srv == nil {
		return nil
	}
	return g.srv.Close()
}

// Stats returns the current counters.
func (g *Gateway) Stats() Stats {
	return Stats{
		Requests:     g.requests.Load(),
		CacheHits:    g.cacheHits.Load(),
		StoreHits:    g.storeHits.Load(),
		OriginHits:   g.originHits.Load(),
		UpstreamHits: g.upstreamHits.Load(),
		Misses:       g.misses.Load(),
		BytesServed:  g.bytesServed.Load(),
	}
}

// The response header values every chunk response shares. A handler
// assigns them, and an entry's hashHdr, straight into its header map: no
// Set, no formatting. net/http clones the handler's header map at
// WriteHeader and never writes into a value slice, and nobody else may
// either (DESIGN.md, "a slice is never written once handed out").
var (
	octetStream  = []string{"application/octet-stream"}
	fromCache    = []string{"cache"}
	fromStore    = []string{"store"}
	fromOrigin   = []string{"origin"}
	fromUpstream = []string{"upstream"}
)

func (g *Gateway) handleChunk(w http.ResponseWriter, r *http.Request) {
	g.requests.Add(1)
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 32)
	if err != nil {
		http.Error(w, "bad chunk id", http.StatusBadRequest)
		return
	}
	e, src, ok := g.lookup(msg.ChunkID(id))
	if !ok {
		http.Error(w, "chunk not available", http.StatusNotFound)
		return
	}
	h := w.Header()
	h["Content-Type"] = octetStream
	h[HashHeader] = e.hashHdr
	h[SourceHeader] = src
	_, _ = w.Write(e.payload)
	g.bytesServed.Add(uint64(len(e.payload)))
}

// lookup resolves a chunk through the cache → store → origin → upstream
// chain, and also returns the X-Lifting-Source value. The returned slices
// are shared and read-only.
func (g *Gateway) lookup(c msg.ChunkID) (entry, []string, bool) {
	if e, ok := g.cache.get(c); ok {
		g.cacheHits.Add(1)
		return e, fromCache, true
	}

	g.mu.Lock()
	if call, inflight := g.flight[c]; inflight {
		g.mu.Unlock()
		<-call.done
		return call.e, call.src, call.ok
	}
	call := &flightCall{done: make(chan struct{})}
	g.flight[c] = call
	g.mu.Unlock()

	call.e, call.src, call.ok = g.fetch(c)
	g.mu.Lock()
	delete(g.flight, c)
	g.mu.Unlock()
	close(call.done)
	return call.e, call.src, call.ok
}

// fetch is the miss path: the node's store, then the origin generator, then
// the upstream gateway. Whatever it finds lands in the cache.
func (g *Gateway) fetch(c msg.ChunkID) (entry, []string, bool) {
	if g.opts.Store != nil {
		if payload, hash, ok := g.opts.Store.Get(c); ok {
			g.storeHits.Add(1)
			return g.cache.put(c, payload, hash), fromStore, true
		}
	}
	if g.opts.Origin != nil {
		payload, hash := g.opts.Origin.Chunk(c)
		if payload != nil {
			g.originHits.Add(1)
			return g.cache.put(c, payload, hash), fromOrigin, true
		}
	}
	if g.opts.Upstream != "" {
		if payload, hash, err := FetchChunk(g.client, g.opts.Upstream, c); err == nil {
			g.upstreamHits.Add(1)
			return g.cache.put(c, payload, hash), fromUpstream, true
		}
	}
	g.misses.Add(1)
	return entry{}, nil, false
}

func (g *Gateway) handleHave(w http.ResponseWriter, _ *http.Request) {
	var stored []msg.ChunkID
	if g.opts.Store != nil {
		stored = g.opts.Store.Chunks()
	}
	seen := make(map[msg.ChunkID]bool)
	ids := []uint32{}
	// Store first, cache second: each list is sorted and the test surface
	// only needs set semantics, but keep the union stable anyway.
	for _, list := range [][]msg.ChunkID{stored, g.cache.chunks()} {
		for _, c := range list {
			if !seen[c] {
				seen[c] = true
				ids = append(ids, uint32(c))
			}
		}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(ids)
}

func (g *Gateway) handleStats(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(g.Stats())
}

// chunkPath is the route prefix of one chunk.
const chunkPath = "/stream/chunk/"

// errorBodyDrain bounds what FetchChunk reads of a non-200 response body so
// that its keep-alive connection goes back to the pool: an error page is a
// line, and a longer body costs its connection instead of the read.
const errorBodyDrain = 4 << 10

// FetchChunk downloads chunk c from the gateway at base URL and verifies the
// payload against the advertised content hash. It is the client side of the
// gateway protocol — the upstream path uses it, and so do tests and tools.
func FetchChunk(client *http.Client, base string, c msg.ChunkID) ([]byte, uint64, error) {
	if client == nil {
		client = &http.Client{Timeout: 5 * time.Second}
	}
	var buf [96]byte // the URL is built on the stack; only its string escapes
	url := strconv.AppendUint(append(append(buf[:0], base...), chunkPath...), uint64(c), 10)
	resp, err := client.Get(string(url))
	if err != nil {
		return nil, 0, fmt.Errorf("gateway: fetch chunk %d: %w", c, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, errorBodyDrain)) // the error is the status
		return nil, 0, fmt.Errorf("gateway: fetch chunk %d: %s", c, resp.Status)
	}
	hash, err := strconv.ParseUint(resp.Header.Get(HashHeader), 16, 64)
	if err != nil {
		return nil, 0, fmt.Errorf("gateway: chunk %d: bad %s header: %w", c, HashHeader, err)
	}
	payload, err := readPayload(resp)
	if err != nil {
		return nil, 0, fmt.Errorf("gateway: chunk %d: %w", c, err)
	}
	if !content.Verify(payload, hash) {
		return nil, 0, fmt.Errorf("gateway: chunk %d: content hash mismatch", c)
	}
	return payload, hash, nil
}

// readPayload reads a chunk body of at most msg.MaxChunkPayload bytes. A
// body of advertised length is read into one buffer of exactly that size —
// the last Read returns EOF with the last byte, so the connection still
// goes back to the pool — and a longer advertised length is refused before
// anything is read. A body of unknown length (chunked) is read through a
// limit one byte past the bound.
func readPayload(resp *http.Response) ([]byte, error) {
	n := resp.ContentLength
	if n > msg.MaxChunkPayload {
		return nil, fmt.Errorf("advertised payload of %d bytes exceeds %d", n, msg.MaxChunkPayload)
	}
	if n >= 0 {
		payload := make([]byte, n)
		if _, err := io.ReadFull(resp.Body, payload); err != nil {
			return nil, err
		}
		return payload, nil
	}
	payload, err := io.ReadAll(io.LimitReader(resp.Body, msg.MaxChunkPayload+1))
	if err != nil {
		return nil, err
	}
	if len(payload) > msg.MaxChunkPayload {
		return nil, fmt.Errorf("payload exceeds %d bytes", msg.MaxChunkPayload)
	}
	return payload, nil
}
