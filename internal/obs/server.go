// Package obs serves a node's observability surface over HTTP: Prometheus
// text exposition on /metrics, an operator-facing JSON summary on /status,
// and the standard pprof handlers on /debug/pprof/. It is deliberately
// dependency-free: the exposition format is hand-rolled in
// internal/metrics, and everything here is net/http from the standard
// library.
package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"lifting/internal/metrics"
)

// Score is one entry of the local score view, ordered by node id (a JSON
// map would sort ids lexically: "10" before "2").
type Score struct {
	Node  uint32  `json:"node"`
	Score float64 `json:"score"`
}

// Status is the operator-facing summary served on /status.
type Status struct {
	NodeID          uint32   `json:"node_id"`
	Period          uint64   `json:"period"`
	MembershipEpoch uint64   `json:"membership_epoch"`
	Members         int      `json:"members"`
	PeerBookSize    int      `json:"peer_book_size"`
	UptimeSeconds   float64  `json:"uptime_seconds"`
	Expelled        []uint32 `json:"expelled"`
	Scores          []Score  `json:"scores"`
}

// The header phase is bounded: headers must arrive within readHeaderTimeout
// (from accept, or from a kept-alive connection's next first byte) and fit in
// maxHeaderBytes (else 431), or the connection is closed. Idle keep-alive
// connections are cut by neither.
const (
	readHeaderTimeout = 5 * time.Second
	maxHeaderBytes    = 16 << 10
)

// Server is a small HTTP server exposing one node's metrics and status.
type Server struct {
	mux    *http.ServeMux
	srv    *http.Server
	ln     net.Listener
	start  time.Time
	status func() Status
}

// New assembles a server around a metric registry and a status provider.
// The status callback runs on HTTP handler goroutines; it must be safe to
// call concurrently with the node's operation.
func New(reg *metrics.Registry, status func() Status) *Server {
	s := &Server{mux: http.NewServeMux(), start: time.Now(), status: status}
	s.mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
	s.mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		st := s.status()
		st.UptimeSeconds = time.Since(s.start).Seconds()
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(st)
	})
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "lifting-node\n\n/metrics\n/status\n/debug/pprof/\n")
	})
	return s
}

// Start binds addr (host:port; port 0 picks a free one) and serves in the
// background. It returns the bound address.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	s.srv = &http.Server{Handler: s.mux, ReadHeaderTimeout: readHeaderTimeout, MaxHeaderBytes: maxHeaderBytes}
	go s.srv.Serve(ln)
	return ln.Addr().String(), nil
}

// Close stops the server and its listener.
func (s *Server) Close() error {
	if s.srv == nil {
		return nil
	}
	return s.srv.Close()
}
