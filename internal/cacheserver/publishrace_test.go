package cacheserver_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"persistcc/internal/cacheserver"
	"persistcc/internal/core"
	"persistcc/internal/fsx"
	"persistcc/internal/store"
)

// gateFS holds the first manifest write (a *.pcm.tmp) made after arm until
// the test releases it: a publish parked between its blobs and its manifest.
type gateFS struct {
	fsx.FS
	armed   atomic.Bool
	reached chan struct{}
	release chan struct{}
}

func newGateFS() *gateFS {
	return &gateFS{FS: fsx.OS, reached: make(chan struct{}), release: make(chan struct{})}
}

func (g *gateFS) arm() { g.armed.Store(true) }

func (g *gateFS) WriteFile(path string, data []byte, perm fs.FileMode) error {
	if strings.HasSuffix(path, ".pcm.tmp") && g.armed.CompareAndSwap(true, false) {
		close(g.reached)
		<-g.release
	}
	return g.FS.WriteFile(path, data, perm)
}

// blockedOnLock reports whether some goroutine is parked acquiring a mutex
// with fn on its stack.
func blockedOnLock(fn string) bool {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "SemacquireMutex") && strings.Contains(g, fn) {
			return true
		}
	}
	return false
}

// waitUntil polls cond until it holds, failing the test after 10 s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// serveGated starts a daemon over a fresh database whose writes go through
// a gateFS, and returns the gate, the database directory and the address.
func serveGated(t *testing.T) (*gateFS, string, string) {
	t.Helper()
	gate, dir := newGateFS(), t.TempDir()
	mgr, err := core.NewManager(dir, core.WithFS(gate))
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
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return gate, dir, ln.Addr().String()
}

// TestPublishRacingCompactKeepsDedupedBlobs: a publish whose blobs all
// dedup against a pack no manifest references (its entry was evicted) must
// not lose them to a COMPACT dispatched while it is writing. The publish
// commits under the database lock, so the compaction waits for the
// manifest and counts its blobs live.
func TestPublishRacingCompactKeepsDedupedBlobs(t *testing.T) {
	gate, dir, addr := serveGated(t)
	v, _ := buildWorld(t, "app", 1).ranVM(t, 10)
	cf, ks := core.BuildCacheFile(v)
	c := newClient(addr)
	defer c.Close()
	if _, err := c.Publish(cf); err != nil {
		t.Fatal(err)
	}
	stem := core.FileStem(ks.ManifestFileName())
	if _, err := c.Evict([]string{stem}); err != nil {
		t.Fatal(err)
	}

	gate.arm()
	published := make(chan error, 1)
	go func() { _, err := c.Publish(cf); published <- err }()
	<-gate.reached
	compacted := make(chan error, 1)
	go func() {
		cc := newClient(addr)
		defer cc.Close()
		_, err := cc.CompactStore()
		compacted <- err
	}()
	var compactErr error
	compactDone := false
	waitUntil(t, "COMPACT to return or to wait for the publish", func() bool {
		select {
		case compactErr = <-compacted:
			compactDone = true
			return true
		default:
			return blockedOnLock("(*Manager).CompactStore(")
		}
	})
	close(gate.release)
	if err := <-published; err != nil {
		t.Fatal(err)
	}
	if !compactDone {
		compactErr = <-compacted
	}
	if compactErr != nil {
		t.Fatal(compactErr)
	}

	b, err := os.ReadFile(filepath.Join(dir, ks.ManifestFileName()))
	if err != nil {
		t.Fatal(err)
	}
	man, err := store.DecodeManifest(b)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := core.NewManager(dir)
	if err != nil {
		t.Fatal(err)
	}
	st, err := fresh.Store()
	if err != nil {
		t.Fatal(err)
	}
	if missing := st.Missing(man, nil); len(missing) > 0 {
		t.Fatalf("%d of %d blobs deleted", len(missing), len(man.Traces))
	}
}

// TestPublishQueuedBehindEvictStaysIndexed: a publish that waits for an
// EVICT of its own entry writes that entry afresh, and the daemon must keep
// serving it — LOOKUP finds it with the traces the publish reported.
func TestPublishQueuedBehindEvictStaysIndexed(t *testing.T) {
	gate, _, addr := serveGated(t)
	v, _ := buildWorld(t, "app", 1).ranVM(t, 10)
	cf, ks := core.BuildCacheFile(v)
	// A different payload for the same key set, so single-flight does not
	// fold the second publish into the first.
	second := *cf
	second.Traces = cf.Traces[1:]

	gate.arm()
	first := make(chan error, 1)
	go func() {
		c := newClient(addr)
		defer c.Close()
		_, err := c.Publish(cf)
		first <- err
	}()
	<-gate.reached

	evicted := make(chan error, 1)
	go func() {
		c := newClient(addr)
		defer c.Close()
		_, err := c.Evict([]string{core.FileStem(ks.ManifestFileName())})
		evicted <- err
	}()
	waitUntil(t, "EVICT to queue behind the publish", func() bool { return blockedOnLock("(*Server).handleEvict(") })

	type result struct {
		rep *core.CommitReport
		err error
	}
	republished := make(chan result, 1)
	go func() {
		c := newClient(addr)
		defer c.Close()
		rep, err := c.Publish(&second)
		republished <- result{rep, err}
	}()
	waitUntil(t, "the second publish to queue behind the EVICT", func() bool { return blockedOnLock("(*Server).merge(") })

	close(gate.release)
	for _, ch := range []chan error{first, evicted} {
		if err := <-ch; err != nil {
			t.Fatal(err)
		}
	}
	r := <-republished
	if r.err != nil {
		t.Fatal(r.err)
	}
	c := newClient(addr)
	defer c.Close()
	info, err := c.Lookup(ks, false)
	if err != nil {
		t.Fatalf("lookup after the queued publish: %v", err)
	}
	if info.Traces != r.rep.Traces {
		t.Fatalf("lookup found %d traces, the publish wrote %d", info.Traces, r.rep.Traces)
	}
}
