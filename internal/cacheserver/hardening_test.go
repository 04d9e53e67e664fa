package cacheserver_test

import (
	"encoding/binary"
	"errors"
	"net"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"persistcc/internal/cacheserver"
	"persistcc/internal/cacheserver/fleet"
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

// TestStoppedDaemonDegradesWithinDeadline: a stopped daemon keeps its
// listening socket, so the kernel still completes connections and queues
// requests nothing will answer — here, a listener that never accepts. A run
// reaching it as a fleet of one must degrade to its local database once the
// round-trip deadline passes, without asking again. The test waits on a
// timer and never closes a client whose request is stuck, so a client that
// hangs fails it rather than hanging it.
func TestStoppedDaemonDegradesWithinDeadline(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	fl, err := fleet.New(fleet.Single(ln.Addr().String()),
		fleet.WithShardOptions(cacheserver.WithIOTimeoutForTest(100*time.Millisecond)))
	if err != nil {
		t.Fatal(err)
	}
	local, err := core.NewManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w := buildWorld(t, "prog", 23)
	ran, _ := w.ranVM(t, 40)
	if _, err := local.Commit(ran); err != nil {
		t.Fatal(err)
	}
	f := cacheserver.NewFallback(fl, local)

	type primed struct {
		rep *core.PrimeReport
		err error
	}
	done := make(chan primed, 1)
	v := w.freshVM(t, 40)
	go func() {
		rep, err := f.Prime(v)
		done <- primed{rep, err}
	}()
	select {
	case p := <-done:
		if p.err != nil || !p.rep.Found || p.rep.Installed == 0 {
			t.Fatalf("prime against a stopped daemon did not degrade to the local entry: %+v, %v", p.rep, p.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("prime against a stopped daemon still blocked after 5 s")
	}
	snap := fl.Metrics().Snapshot()
	if n, _ := snap.Value("pcc_client_retries_total"); n != 0 {
		t.Errorf("%v retries of a round trip that hit its deadline", n)
	}
	if n, _ := snap.Value("pcc_client_fallbacks_total", "prime"); n != 1 {
		t.Errorf("fallbacks{prime} = %v, want 1", n)
	}
	fl.Close()
}

// TestWedgedDaemonCostsOneDeadline: a wedged daemon (its kernel completes
// connections, nothing answers) costs a launch one round-trip deadline, not
// one per request. Every launch starts a fresh client, so a breaker that
// opens only after several failures never opens within one: the prime's
// FETCHMANIFESTS must open it when it hits the deadline, and the commit's
// PUBLISH then fast-fails to the local database. The probe's dials to such a
// daemon complete too; they must not close the breaker while no round trip
// does.
func TestWedgedDaemonCostsOneDeadline(t *testing.T) {
	const base = 200 * time.Millisecond
	const probeInterval = 250 * time.Millisecond // NewClient's default
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	fl, err := fleet.New(fleet.Single(ln.Addr().String()),
		fleet.WithShardOptions(cacheserver.WithIOTimeoutForTest(base)))
	if err != nil {
		t.Fatal(err)
	}
	local, err := core.NewManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	f := cacheserver.NewFallback(fl, local)
	w := buildWorld(t, "prog", 29)
	v := w.freshVM(t, 40)

	primed := make(chan error, 1)
	go func() {
		_, err := f.Prime(v)
		primed <- err
	}()
	select {
	case err := <-primed:
		if !errors.Is(err, core.ErrNoCache) {
			t.Fatalf("prime against a wedged daemon with an empty local database: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("prime against a wedged daemon still blocked after 5 s")
	}
	if _, err := v.Run(); err != nil {
		t.Fatal(err)
	}

	committed := make(chan error, 1)
	start := time.Now()
	go func() {
		rep, err := f.Commit(v)
		if err == nil && rep.Traces == 0 {
			err = errors.New("commit stored nothing")
		}
		committed <- err
	}()
	select {
	case err := <-committed:
		if err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d >= base/2 {
			t.Errorf("commit after a timed-out prime took %v, want < %v: it waited out a second deadline", d, base/2)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("commit against a wedged daemon still blocked after 5 s")
	}

	time.Sleep(2*probeInterval + probeInterval/2)
	snap := fl.Metrics().Snapshot()
	if open, _ := snap.Value("pcc_client_breaker_open"); open != 1 {
		t.Errorf("breaker closed after two probe intervals against a daemon that answers nothing")
	}
	if n, _ := snap.Value("pcc_client_fallbacks_total", "commit"); n != 1 {
		t.Errorf("fallbacks{commit} = %v, want 1", n)
	}
	fl.Close()
}

// TestWedgedDaemonRecoversOnRoundTrip: the breaker a deadline opened stays
// open while the daemon completes dials but answers nothing, and closes once
// the daemon answers the probe's round trip again.
func TestWedgedDaemonRecoversOnRoundTrip(t *testing.T) {
	const probeInterval = 20 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c := cacheserver.NewClient(ln.Addr().String(), cacheserver.WithRetry(0, 0),
		cacheserver.WithBreaker(3, probeInterval), cacheserver.WithIOTimeoutForTest(100*time.Millisecond))
	defer c.Close()
	if _, err := c.Stats(); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("STATS to a daemon that never answers: %v, want a deadline error", err)
	}
	if !c.BreakerOpenForTest() {
		t.Fatal("one round trip that hit its deadline left the breaker closed")
	}
	time.Sleep(5 * probeInterval)
	if !c.BreakerOpenForTest() {
		t.Fatal("the probe closed the breaker on a dial the daemon never answered")
	}

	mgr, err := core.NewManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := cacheserver.New(mgr)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln) // the daemon wakes up on the same socket
	defer srv.Close()
	deadline := time.Now().Add(5 * time.Second)
	for c.BreakerOpenForTest() {
		if time.Now().After(deadline) {
			t.Fatal("breaker never closed after the daemon answered again")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := c.Stats(); err != nil {
		t.Fatalf("stats after recovery: %v", err)
	}
}

// TestSlowResponseGetsItsBytesTime: a daemon that streams a large answer
// slowly but steadily is healthy. Once the response header arrives, the
// deadline covers its bytes at the minimum rate, so a 1 MiB answer that
// takes several times the deadline base to arrive is not cut off.
func TestSlowResponseGetsItsBytesTime(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	payload := cacheserver.EncodePackFilesForTest([][]byte{make([]byte, 1<<20)})
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)+1))
	frame = append(append(frame, cacheserver.StatusOK), payload...)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, _, err := cacheserver.ReadFrameForTest(conn); err != nil {
			return
		}
		for len(frame) > 0 { // 16 chunks, 400 ms in all
			n := min(len(frame), 64<<10)
			if _, err := conn.Write(frame[:n]); err != nil {
				return
			}
			frame = frame[n:]
			time.Sleep(25 * time.Millisecond)
		}
	}()
	c := cacheserver.NewClient(ln.Addr().String(), cacheserver.WithRetry(0, 0),
		cacheserver.WithIOTimeoutForTest(100*time.Millisecond))
	defer c.Close()
	packs, err := c.FetchPacks(core.KeySet{}, nil)
	if err != nil {
		t.Fatalf("a steadily streamed 1 MiB response hit the deadline: %v", err)
	}
	if len(packs) != 1 || len(packs[0]) != 1<<20 {
		t.Fatalf("got %d packs", len(packs))
	}
}

// TestMaintenanceOpsGetTheirOwnDeadline: COMPACT's time grows with the
// daemon's database, so it is held to the maintenance base, not to the
// launch-path base that cuts off a STATS just as slow. The breaker is off:
// the STATS that hits its deadline would open it, and the COMPACT after it
// would fast-fail without a round trip.
func TestMaintenanceOpsGetTheirOwnDeadline(t *testing.T) {
	mgr, err := core.NewManager(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := cacheserver.New(mgr, cacheserver.WithDispatchDelay(300*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	ln, err := cacheserver.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	c := cacheserver.NewClient(ln.Addr().String(), cacheserver.WithRetry(0, 0),
		cacheserver.WithBreaker(0, 0), cacheserver.WithIOTimeoutForTest(100*time.Millisecond))
	defer c.Close()
	if _, err := c.Stats(); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("STATS 300 ms late: %v, want a deadline error", err)
	}
	if _, err := c.CompactStore(); err != nil {
		t.Fatalf("COMPACT 300 ms late: %v", err)
	}
}

// TestGlobalCompactSkipsStoppedShard: a shard that does not answer the
// utility summary is named in Failed without being asked to evict or
// compact, so a stopped shard costs the round one launch-path deadline,
// not the maintenance one.
func TestGlobalCompactSkipsStoppedShard(t *testing.T) {
	_, addr, _ := startServer(t)
	stopped, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stopped.Close()
	fl, err := fleet.New(&fleet.Config{Shards: []fleet.Shard{
		{ID: "live", Addr: addr}, {ID: "stopped", Addr: stopped.Addr().String()},
	}}, fleet.WithShardOptions(cacheserver.WithIOTimeoutForTest(100*time.Millisecond)))
	if err != nil {
		t.Fatal(err)
	}
	type compacted struct {
		rep *fleet.CompactReport
		err error
	}
	done := make(chan compacted, 1)
	go func() {
		rep, err := fl.GlobalCompact(0)
		done <- compacted{rep, err}
	}()
	select {
	case c := <-done:
		if c.err != nil || !slices.Equal(c.rep.Failed, []string{"stopped"}) {
			t.Fatalf("GlobalCompact = %+v, %v; want Failed [stopped]", c.rep, c.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("GlobalCompact with a stopped shard still blocked after 5 s")
	}
	fl.Close()
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
