package cacheserver_test

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"persistcc/internal/cacheserver"
	"persistcc/internal/core"
)

// TestOversizedFrameRejected declares an absurd frame length; the server
// must answer with a StatusError frame, sever that connection without
// allocating for the body, and keep serving everyone else.
func TestOversizedFrameRejected(t *testing.T) {
	_, addr, _ := startServer(t, cacheserver.WithMaxFrame(1<<16))

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Header declaring a 1 GiB frame, no body.
	if _, err := conn.Write([]byte{0x00, 0x00, 0x00, 0x40, cacheserver.OpStats}); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	status, payload, err := cacheserver.ReadFrameForTest(conn)
	if err != nil {
		t.Fatalf("want a StatusError frame before disconnect, got %v", err)
	}
	if status != cacheserver.StatusError || !strings.Contains(string(payload), "exceeds size limit") {
		t.Fatalf("status %d payload %q", status, payload)
	}
	// The connection is dead now...
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Error("server kept the connection after an oversized frame")
	}
	// ...but the daemon is not.
	c := newClient(addr)
	defer c.Close()
	if _, err := c.Stats(); err != nil {
		t.Fatalf("daemon unusable after oversized frame: %v", err)
	}
}

// TestRetiredOpsRejected: the op codes of the retired whole-image FETCH (2),
// PRUNE (5), bulk FETCH (7) and FETCHBLOBS (9), like a code never assigned,
// get a StatusError frame counted as op="unknown", and the connection stays
// usable: the next request on it is served.
func TestRetiredOpsRejected(t *testing.T) {
	srv, addr, _ := startServer(t)
	w := buildWorld(t, "retired", 22)
	v, _ := w.ranVM(t, 40)
	cf, ks := core.BuildCacheFile(v)
	c := newClient(addr)
	defer c.Close()
	if _, err := c.Publish(cf); err != nil {
		t.Fatal(err)
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	req := cacheserver.EncodeKeyRequestForTest(ks, cacheserver.ScopeExact)
	ops := []uint8{2, 5, 7, 9, 200}
	for _, op := range ops {
		if err := cacheserver.WriteFrameForTest(conn, op, req); err != nil {
			t.Fatal(err)
		}
		status, payload, err := cacheserver.ReadFrameForTest(conn)
		if err != nil {
			t.Fatalf("op %d: no response frame: %v", op, err)
		}
		if status != cacheserver.StatusError || !strings.Contains(string(payload), "unknown op") {
			t.Errorf("op %d: status %d payload %q, want StatusError naming an unknown op", op, status, payload)
		}
	}
	if err := cacheserver.WriteFrameForTest(conn, cacheserver.OpLookup, req); err != nil {
		t.Fatal(err)
	}
	if status, _, err := cacheserver.ReadFrameForTest(conn); err != nil || status != cacheserver.StatusOK {
		t.Fatalf("LOOKUP after the rejected ops: status %d, %v", status, err)
	}
	snap := srv.Metrics().Snapshot()
	if v, _ := snap.Value("pcc_server_requests_total", "unknown", "error"); v != float64(len(ops)) {
		t.Errorf(`requests_total{op="unknown",status="error"} = %v, want %d`, v, len(ops))
	}
}

// TestStatsIgnoresPayload: a daemon answers STATS for its own database
// whatever the payload. Clients from before fleet STATS moved into the
// routing client send a one-byte scope ({1} for "this daemon only"); they
// get the same totals as an empty request.
func TestStatsIgnoresPayload(t *testing.T) {
	_, addr, _ := startServer(t)
	w := buildWorld(t, "statsscope", 23)
	v, _ := w.ranVM(t, 40)
	cf, _ := core.BuildCacheFile(v)
	c := newClient(addr)
	defer c.Close()
	if _, err := c.Publish(cf); err != nil {
		t.Fatal(err)
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	var want []byte
	for _, payload := range [][]byte{nil, {1}, {0}, {0xff, 0xff}} {
		if err := cacheserver.WriteFrameForTest(conn, cacheserver.OpStats, payload); err != nil {
			t.Fatal(err)
		}
		status, resp, err := cacheserver.ReadFrameForTest(conn)
		if err != nil || status != cacheserver.StatusOK {
			t.Fatalf("STATS %v: status %d, %v", payload, status, err)
		}
		if want == nil {
			st, err := cacheserver.DecodeDBStatsForTest(resp)
			if err != nil || st.Files != 1 {
				t.Fatalf("STATS: %+v, %v; want this daemon's one cache file", st, err)
			}
			want = resp
		} else if string(resp) != string(want) {
			t.Errorf("STATS %v answered differently from an empty request", payload)
		}
	}
}

// TestClientRefusesOversizedPayload: the client's own frame bound stops an
// outsized publish before it touches the wire, without blaming the daemon
// (no retries, breaker stays closed).
func TestClientRefusesOversizedPayload(t *testing.T) {
	_, addr, _ := startServer(t)
	c := cacheserver.NewClient(addr,
		cacheserver.WithClientMaxFrame(256),
		cacheserver.WithBreaker(1, time.Hour))
	defer c.Close()

	w := buildWorld(t, "prog", 20)
	v, _ := w.ranVM(t, 40)
	cf, _ := core.BuildCacheFile(v)
	if _, err := c.Publish(cf); err == nil || !strings.Contains(err.Error(), "exceeds size limit") {
		t.Fatalf("want frame-size error, got %v", err)
	}
	if c.BreakerOpenForTest() {
		t.Error("local frame-size violation tripped the breaker")
	}
}

// TestSilentPeerTimedOut: a connection that never sends a request is
// disconnected once the idle timeout expires, so wedged or leaked client
// sockets cannot pin handler goroutines.
func TestSilentPeerTimedOut(t *testing.T) {
	_, addr, _ := startServer(t, cacheserver.WithIdleTimeout(100*time.Millisecond))

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("idle connection was not disconnected")
	}
	// An active client on the same server is unaffected.
	c := newClient(addr)
	defer c.Close()
	if _, err := c.Stats(); err != nil {
		t.Fatalf("daemon unusable after idle disconnect: %v", err)
	}
}

// TestBreakerOpensAndRecovers kills the daemon, drives the client into the
// open-breaker state (fast fails, no dialing), restarts the daemon on the
// same address, and waits for the background probe to close the breaker.
func TestBreakerOpensAndRecovers(t *testing.T) {
	mgr, err := core.NewManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := cacheserver.New(mgr)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := cacheserver.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	go srv.Serve(ln)

	c := cacheserver.NewClient(addr,
		cacheserver.WithRetry(0, time.Millisecond),
		cacheserver.WithDialTimeout(200*time.Millisecond),
		cacheserver.WithBreaker(3, 20*time.Millisecond))
	defer c.Close()
	if _, err := c.Stats(); err != nil {
		t.Fatalf("stats against live server: %v", err)
	}
	srv.Close()

	for i := 0; i < 3; i++ {
		if _, err := c.Stats(); err == nil {
			t.Fatalf("request %d against dead server succeeded", i)
		}
	}
	if !c.BreakerOpenForTest() {
		t.Fatal("breaker still closed after consecutive failures")
	}
	// Open breaker: fast fail with the sentinel, without touching the net.
	start := time.Now()
	if _, err := c.Stats(); !errors.Is(err, cacheserver.ErrBreakerOpen) {
		t.Fatalf("want ErrBreakerOpen, got %v", err)
	}
	if d := time.Since(start); d > 50*time.Millisecond {
		t.Errorf("fast-fail took %v; the breaker is not short-circuiting", d)
	}
	if v, ok := c.Metrics().Snapshot().Value("pcc_client_breaker_opens_total"); !ok || v < 1 {
		t.Errorf("breaker open not recorded: %v %v", v, ok)
	}

	// Daemon returns on the same address; the probe must find it.
	srv2, err := cacheserver.New(mgr)
	if err != nil {
		t.Fatal(err)
	}
	ln2, err := cacheserver.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	go srv2.Serve(ln2)
	t.Cleanup(func() { srv2.Close() })

	deadline := time.Now().Add(5 * time.Second)
	for c.BreakerOpenForTest() {
		if time.Now().After(deadline) {
			t.Fatal("breaker never closed after the daemon returned")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := c.Stats(); err != nil {
		t.Fatalf("stats after recovery: %v", err)
	}
}

// TestBreakerFallbackNoRetryStorm is the acceptance shape: daemon killed
// mid-run, warm operations keep completing through the local database, and
// once the breaker opens the client stops dialing per operation.
func TestBreakerFallbackNoRetryStorm(t *testing.T) {
	srv, addr, _ := startServer(t)
	client := cacheserver.NewClient(addr,
		cacheserver.WithRetry(0, time.Millisecond),
		cacheserver.WithDialTimeout(200*time.Millisecond),
		cacheserver.WithBreaker(2, time.Hour)) // probe cadence irrelevant here
	defer client.Close()
	local, err := core.NewManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	f := cacheserver.NewFallback(client, local)
	w := buildWorld(t, "prog", 21)

	if _, _, crep := runWithFallback(t, f, w, 40); crep.Traces == 0 {
		t.Fatal("warm-up commit stored nothing")
	}
	srv.Close()

	// Each run is one fetch + one publish; the breaker opens during the
	// first dead run and every later operation fast-fails locally.
	for i := 0; i < 3; i++ {
		res, _, crep := runWithFallback(t, f, w, 40)
		if crep.Traces == 0 {
			t.Fatalf("dead-daemon run %d stored nothing", i)
		}
		if i > 0 && res.Stats.TracesTranslated != 0 {
			t.Errorf("dead-daemon run %d translated %d traces despite local cache", i, res.Stats.TracesTranslated)
		}
	}
	if !client.BreakerOpenForTest() {
		t.Fatal("breaker still closed after repeated dead-daemon runs")
	}
	snap := client.Metrics().Snapshot()
	if v, ok := snap.Value("pcc_client_dial_errors_total"); !ok || v > 2 {
		t.Errorf("dial attempts after death: %v, want ≤ breaker threshold (2) — retry storm", v)
	}
	if v, ok := snap.Value("pcc_client_breaker_fastfails_total"); !ok || v < 4 {
		t.Errorf("fast-fails %v, want ≥ 4 (two runs of two ops)", v)
	}
}

// TestGracefulDrain holds a request in flight, calls Shutdown, and checks
// the request still gets its response while new connections are refused.
func TestGracefulDrain(t *testing.T) {
	srv, addr, _ := startServer(t, cacheserver.WithDispatchDelay(150*time.Millisecond))

	c := newClient(addr)
	defer c.Close()
	type out struct {
		st  *core.DBStats
		err error
	}
	done := make(chan out, 1)
	go func() {
		st, err := c.Stats()
		done <- out{st, err}
	}()
	time.Sleep(50 * time.Millisecond) // request is inside the stalled dispatch

	if err := srv.Shutdown(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	res := <-done
	if res.err != nil {
		t.Fatalf("in-flight request dropped by graceful shutdown: %v", res.err)
	}
	// The listener is gone: a fresh client cannot connect.
	c2 := cacheserver.NewClient(addr,
		cacheserver.WithRetry(0, time.Millisecond), cacheserver.WithDialTimeout(200*time.Millisecond))
	defer c2.Close()
	if _, err := c2.Stats(); err == nil {
		t.Error("server accepted a connection after Shutdown")
	}
}
