package obs

import (
	"bufio"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"lifting/internal/metrics"
	"lifting/internal/msg"
)

// noTraffic scrapes a collector that has recorded nothing.
func noTraffic() (metrics.Snapshot, []Gauge) {
	return metrics.NewCollector().SnapshotAt(0), nil
}

func get(t *testing.T, url string) (string, http.Header) {
	t.Helper()
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	return string(body), resp.Header
}

func TestServerEndpoints(t *testing.T) {
	c := metrics.NewCollector()
	serve := &msg.Serve{Sender: 1, Chunk: 1, PayloadSize: 1000}
	c.OnSend(1, serve, serve.WireSize())
	c.OnDeliver(2, serve, serve.WireSize())
	srv := New(func() (metrics.Snapshot, []Gauge) { return c.SnapshotAt(0), nil }, func() Status {
		return Status{
			NodeID:          3,
			Period:          12,
			MembershipEpoch: 2,
			Members:         5,
			PeerBookSize:    4,
			Expelled:        []uint32{7},
			Scores:          []Score{{Node: 1, Score: -0.5}, {Node: 2, Score: 0.1}},
		}
	})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer srv.Close()

	body, hdr := get(t, "http://"+addr+"/metrics")
	if !strings.HasPrefix(hdr.Get("Content-Type"), "text/plain") {
		t.Fatalf("metrics content type: %q", hdr.Get("Content-Type"))
	}
	for _, want := range []string{
		"lifting_verification_overhead_ratio",
		`lifting_sent_messages_total{kind="serve"} 1`,
		"# TYPE lifting_serve_latency_seconds histogram",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}

	body, hdr = get(t, "http://"+addr+"/status")
	if hdr.Get("Content-Type") != "application/json" {
		t.Fatalf("status content type: %q", hdr.Get("Content-Type"))
	}
	var st Status
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("status not JSON: %v\n%s", err, body)
	}
	if st.NodeID != 3 || st.Period != 12 || st.Members != 5 || st.PeerBookSize != 4 {
		t.Fatalf("status fields: %+v", st)
	}
	if st.UptimeSeconds <= 0 {
		t.Fatalf("uptime not stamped: %+v", st)
	}
	if len(st.Scores) != 2 || st.Scores[0].Node != 1 {
		t.Fatalf("scores: %+v", st.Scores)
	}

	body, _ = get(t, "http://"+addr+"/debug/pprof/cmdline")
	if len(body) == 0 {
		t.Fatal("pprof cmdline empty")
	}

	body, _ = get(t, "http://"+addr+"/")
	if !strings.Contains(body, "/metrics") {
		t.Fatalf("index page: %q", body)
	}
}

// TestServerCloseDrainsGoroutines closes the observability server while
// scrapes are in flight — including one parked inside the status callback —
// and asserts Close returns promptly and every server goroutine drains. A
// leaked handler goroutine here would accumulate scrape after scrape in a
// long-running soak.
func TestServerCloseDrainsGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()

	parked, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	srv := New(noTraffic, func() Status {
		// First scrape parks inside the node's status provider; later
		// scrapes (and the node itself) must not be blocked by it.
		once.Do(func() {
			close(parked)
			<-release
		})
		return Status{NodeID: 9}
	})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}

	client := &http.Client{Timeout: 10 * time.Second}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		path := "/status"
		if i%2 == 0 {
			path = "/metrics"
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := client.Get("http://" + addr + path)
			if err == nil {
				resp.Body.Close()
			}
		}()
	}
	<-parked

	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung behind an in-flight scrape")
	}
	close(release)
	wg.Wait()
	client.CloseIdleConnections()

	// The per-connection goroutines drain; the runtime's own background
	// goroutines get a little slack. Polled against a deadline.
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	deadline := time.After(5 * time.Second)
	for runtime.NumGoroutine() > baseline+5 {
		select {
		case <-tick.C:
		case <-deadline:
			t.Fatalf("goroutines did not drain after Close: %d now vs %d at start", runtime.NumGoroutine(), baseline)
		}
	}
}

func TestServerClose(t *testing.T) {
	srv := New(noTraffic, func() Status { return Status{} })
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	client := &http.Client{Timeout: time.Second}
	if _, err := client.Get("http://" + addr + "/metrics"); err == nil {
		t.Fatal("server still serving after Close")
	}
}

// A hostile client bounds nothing but the header phase it is allowed: one
// that stalls mid request line is disconnected once readHeaderTimeout has
// passed, and a 64 KB header is answered 431 without reaching a handler.
func TestHeaderPhaseBounded(t *testing.T) {
	srv := New(noTraffic, func() Status { return Status{} })
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	t.Run("stalled request line", func(t *testing.T) {
		t.Parallel()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		start := time.Now()
		if _, err := io.WriteString(conn, "GET /metr"); err != nil {
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
		req, err := http.NewRequest(http.MethodGet, "http://"+addr+"/metrics", nil)
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
	srv := New(noTraffic, func() Status { return Status{} })
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /metrics HTTP/1.1\r\nHost: lifting\r\n\r\n"); err != nil {
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
