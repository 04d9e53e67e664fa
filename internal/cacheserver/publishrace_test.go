package cacheserver_test

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"persistcc/internal/cacheserver"
	"persistcc/internal/core"
	"persistcc/internal/fsx"
	"persistcc/internal/store"
)

// gateFS holds the first manifest write (a *.pcm.tmp) made after arm until
// the test opens it: a publish parked between its blobs and its manifest.
type gateFS struct {
	fsx.FS
	armed   atomic.Bool
	reached chan struct{}
	release chan struct{}
	once    sync.Once
}

func newGateFS() *gateFS {
	return &gateFS{FS: fsx.OS, reached: make(chan struct{}), release: make(chan struct{})}
}

func (g *gateFS) arm() { g.armed.Store(true) }

// open releases the parked write, if any, and every later one; it may be
// called more than once.
func (g *gateFS) open() { g.once.Do(func() { close(g.release) }) }

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
// The gate opens in a cleanup that runs before the server closes: a test
// that fails while a publish is parked must not leave Close waiting on it.
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
	t.Cleanup(gate.open)
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
	gate.open()
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

// TestPublishQueuedBehindEvictIsServed: an EVICT of a committed entry
// queues on the database lock behind a publish of it, and a second publish
// queues behind the EVICT. The lock orders the three on disk, so the entry
// the last publish writes afresh is what LOOKUP then finds, with the traces
// that publish reported.
func TestPublishQueuedBehindEvictIsServed(t *testing.T) {
	gate, _, addr := serveGated(t)
	v, _ := buildWorld(t, "app", 1).ranVM(t, 10)
	cf, ks := core.BuildCacheFile(v)
	// Three payloads for one key set, so single-flight folds none of them:
	// the committed entry, the gated publish and the one behind the EVICT.
	committed, second := *cf, *cf
	committed.Traces = cf.Traces[2:]
	second.Traces = cf.Traces[1:]
	c := newClient(addr)
	defer c.Close()
	if _, err := c.Publish(&committed); err != nil {
		t.Fatal(err)
	}

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
		rep, err := c.Evict([]string{core.FileStem(ks.ManifestFileName())})
		if err == nil && rep.Evicted != 1 {
			err = fmt.Errorf("EVICT removed %d entries, want 1", rep.Evicted)
		}
		evicted <- err
	}()
	waitUntil(t, "EVICT to queue behind the publish", func() bool { return blockedOnLock("(*Manager).RemoveEntry(") })

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
	waitUntil(t, "the second publish to queue behind the EVICT", func() bool { return blockedOnLock("(*Manager).CommitFile(") })

	gate.open()
	for _, ch := range []chan error{first, evicted} {
		if err := <-ch; err != nil {
			t.Fatal(err)
		}
	}
	r := <-republished
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.rep.Accumulate || r.rep.Traces != len(second.Traces) {
		t.Fatalf("the publish behind the EVICT reported %+v, want %d traces written afresh", r.rep, len(second.Traces))
	}
	info, err := c.Lookup(ks, false)
	if err != nil {
		t.Fatalf("lookup after the queued publish: %v", err)
	}
	if info.Traces != r.rep.Traces {
		t.Fatalf("lookup found %d traces, the publish wrote %d", info.Traces, r.rep.Traces)
	}
}
