package cacheserver

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"persistcc/internal/binenc"
	"persistcc/internal/core"
	"persistcc/internal/metrics"
)

// ErrServerClosed is returned by Serve after Close.
var ErrServerClosed = errors.New("cacheserver: server closed")

// flight is one publish's merge in progress, which identical publishes join.
type flight struct {
	done chan struct{}
	rep  *core.CommitReport
	err  error
}

// Server serves one persistent cache database to many client processes.
// The database directory is the catalogue: every op reads it through the
// manager, so an entry a peer commits or removes is served as it stands.
type Server struct {
	mgr *core.Manager

	// hits counts, per entry stem, the FETCHMANIFESTS responses that carried
	// the entry since daemon start — the frequency half of the fleet's
	// utility ranking (hit frequency × translation cost), and the one
	// per-entry state the disk does not hold.
	hitMu sync.Mutex
	hits  map[string]uint64

	// Single-flight dedup of concurrent identical publishes, keyed by the
	// payload digest: the first arrival merges, later identical arrivals
	// wait and share its report.
	flMu     sync.Mutex
	inflight map[[32]byte]*flight

	logf         func(format string, args ...any)
	metrics      *metrics.Registry
	m            *serverMetrics
	maxFrame     int
	idleTimeout  time.Duration // per-connection read/write deadline; 0 = none
	dispatchHook func()        // test seam: runs inside each dispatch

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	draining bool
	wg       sync.WaitGroup
}

// Option configures a Server.
type Option func(*Server)

// WithLog installs a request log sink.
func WithLog(f func(format string, args ...any)) Option {
	return func(s *Server) { s.logf = f }
}

// WithMaxFrame overrides the per-frame size bound (default MaxFrame): a
// daemon on a constrained host can refuse outsized publishes before
// allocating for them.
func WithMaxFrame(n int) Option {
	return func(s *Server) {
		if n > 0 {
			s.maxFrame = n
		}
	}
}

// WithIdleTimeout bounds how long one connection may sit between requests
// (and how long a response write may take): a silent or wedged peer is
// disconnected instead of pinning a handler goroutine forever. Zero keeps
// connections open indefinitely.
func WithIdleTimeout(d time.Duration) Option {
	return func(s *Server) { s.idleTimeout = d }
}

// New builds a server over an opened database. It reads nothing: each
// request reads the database as it stands.
func New(mgr *core.Manager, opts ...Option) (*Server, error) {
	s := &Server{
		mgr:      mgr,
		hits:     make(map[string]uint64),
		inflight: make(map[[32]byte]*flight),
		conns:    make(map[net.Conn]struct{}),
		logf:     func(string, ...any) {},
		maxFrame: MaxFrame,
	}
	for _, o := range opts {
		o(s)
	}
	if s.metrics == nil {
		s.metrics = metrics.NewRegistry()
	}
	s.m = newServerMetrics(s.metrics)
	return s, nil
}

// Listen opens the daemon's listener: "unix:/path/to.sock" or a TCP
// "host:port" address.
func Listen(addr string) (net.Listener, error) {
	if path, ok := strings.CutPrefix(addr, "unix:"); ok {
		return net.Listen("unix", path)
	}
	return net.Listen("tcp", addr)
}

// Serve accepts and handles connections until Close.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return ErrServerClosed
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return ErrServerClosed
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return ErrServerClosed
		}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handleConn(c)
	}
}

// Close stops the listener, severs every connection and waits for the
// handlers to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.wg.Wait()
	return nil
}

// Shutdown drains the server gracefully: the listener closes immediately
// (no new connections), requests already dispatched run to completion and
// get their responses, and idle connections are released by expiring their
// read deadline. Connections still busy after grace are severed. Always
// returns with every handler finished.
func (s *Server) Shutdown(grace time.Duration) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.draining = true
	ln := s.ln
	// Wake handlers blocked reading the next request; handlers mid-dispatch
	// are not reading, so their in-flight work and response are unaffected.
	for c := range s.conns {
		c.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.m.draining.Set(1)

	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(grace):
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
	}
	return nil
}

func (s *Server) handleConn(c net.Conn) {
	s.m.connections.Inc()
	s.m.activeConns.Add(1)
	defer func() {
		c.Close()
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		s.m.activeConns.Add(-1)
		s.wg.Done()
	}()
	for {
		s.mu.Lock()
		draining := s.draining
		s.mu.Unlock()
		if draining {
			return
		}
		if s.idleTimeout > 0 {
			c.SetReadDeadline(time.Now().Add(s.idleTimeout))
		}
		op, payload, err := readFrame(c, s.maxFrame)
		if err != nil {
			switch {
			case errors.Is(err, errFrameTooLarge):
				// Report before severing; the stream position is lost, so
				// the connection cannot continue either way.
				s.m.connDrops.With("oversized").Inc()
				s.writeError(c, err)
			case isTimeout(err):
				s.m.connDrops.With("timeout").Inc()
			}
			return // EOF, severed connection, timeout, or garbage framing
		}
		// A request is in flight: it finishes regardless of how long it
		// takes; the idle deadline must not fire mid-dispatch.
		c.SetReadDeadline(time.Time{})
		s.m.frameBytes.With("in").Add(uint64(len(payload)))
		if s.dispatchHook != nil {
			s.dispatchHook()
		}
		status, resp := s.dispatch(op, payload)
		s.m.frameBytes.With("out").Add(uint64(len(resp)))
		if s.idleTimeout > 0 {
			c.SetWriteDeadline(time.Now().Add(s.idleTimeout))
		}
		if err := writeFrame(c, status, resp, s.maxFrame); err != nil {
			if isTimeout(err) {
				s.m.connDrops.With("timeout").Inc()
			}
			return
		}
	}
}

// writeError best-effort sends a StatusError frame for err.
func (s *Server) writeError(c net.Conn, err error) {
	msg := err.Error()
	if len(msg) > maxErrLen {
		msg = msg[:maxErrLen]
	}
	w := &binenc.Writer{}
	w.Str(msg)
	if s.idleTimeout > 0 {
		c.SetWriteDeadline(time.Now().Add(s.idleTimeout))
	}
	writeFrame(c, StatusError, w.Buf, s.maxFrame)
}

// isTimeout reports whether err is a connection deadline expiry.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// dispatch executes one request, converting handler errors into StatusError
// frames so a bad request never kills the daemon.
func (s *Server) dispatch(op uint8, payload []byte) (status uint8, out []byte) {
	start := time.Now()
	defer func() {
		s.m.requests.With(opName(op), statusName(status)).Inc()
		s.m.latency.With(opName(op)).Observe(time.Since(start).Seconds())
	}()
	var resp []byte
	var err error
	switch op {
	case OpLookup:
		resp, err = s.handleLookup(payload)
	case OpPublish:
		resp, err = s.handlePublish(payload)
	case OpStats:
		resp, err = s.handleStats()
	case OpMetrics:
		s.mgr.Stats() // refresh the database gauges before snapshotting
		resp = s.metrics.Snapshot().JSON()
	case OpFetchManifests:
		resp, err = s.handleFetchManifests(payload)
	case OpFetchPacks:
		resp, err = s.handleFetchPacks(payload)
	case OpUtility:
		resp, err = s.handleUtility()
	case OpEvict:
		resp, err = s.handleEvict(payload)
	case OpCompact:
		resp, err = s.handleCompact()
	default:
		err = fmt.Errorf("unknown op %d", op)
	}
	switch {
	case errors.Is(err, core.ErrNoCache):
		return StatusNotFound, nil
	case err != nil:
		s.logf("cacheserver: op %d: %v", op, err)
		msg := err.Error()
		if len(msg) > maxErrLen {
			msg = msg[:maxErrLen]
		}
		w := &binenc.Writer{}
		w.Str(msg)
		return StatusError, w.Buf
	}
	return StatusOK, resp
}

// handleLookup answers LOOKUP with the metadata of the entry FETCHMANIFESTS
// would send first, without reading it.
func (s *Server) handleLookup(payload []byte) ([]byte, error) {
	ks, scope, err := decodeKeyRequest(payload)
	if err != nil {
		return nil, err
	}
	cands, err := s.mgr.Candidates(ks, scope != ScopeExact)
	if err != nil {
		return nil, err
	}
	if len(cands) == 0 {
		return nil, core.ErrNoCache
	}
	e := cands[0]
	return encodeLookupInfo(&LookupInfo{
		File: e.File, AppPath: e.AppPath, Traces: e.Traces,
		CodePool: e.CodePool, DataPool: e.DataPool,
	}), nil
}

// handlePublish commits a client's publication into the database the way a
// local commit does: through the manager (CommitPublication), under its
// database lock, which also orders it against an EVICT of the same entry.
func (s *Server) handlePublish(payload []byte) ([]byte, error) {
	pub, err := decodePublication(payload)
	if err != nil {
		return nil, err
	}

	// Single-flight: concurrent identical publishes (several processes
	// exiting the same cold run at once) merge exactly once.
	digest := sha256.Sum256(payload)
	s.flMu.Lock()
	if f := s.inflight[digest]; f != nil {
		s.flMu.Unlock()
		s.m.dedups.Inc()
		<-f.done
		if f.err != nil {
			return nil, f.err
		}
		return encodeCommitReport(f.rep), nil
	}
	f := &flight{done: make(chan struct{})}
	s.inflight[digest] = f
	s.flMu.Unlock()

	f.rep, f.err = s.mgr.CommitPublication(pub)
	s.flMu.Lock()
	delete(s.inflight, digest)
	s.flMu.Unlock()
	close(f.done)
	if f.err != nil {
		return nil, f.err
	}
	if !f.rep.Skipped {
		s.logf("cacheserver: published %s: %d traces (%d new, %d dropped)", f.rep.File, f.rep.Traces, f.rep.NewTraces, f.rep.Dropped)
	}
	return encodeCommitReport(f.rep), nil
}

// handleStats answers STATS with this database's totals, Manager.Stats
// itself. A daemon answers for itself only — adding up a fleet is its
// client's job — so it ignores the payload, which older clients fill with a
// scope byte.
func (s *Server) handleStats() ([]byte, error) {
	st, err := s.mgr.Stats()
	if err != nil {
		return nil, err
	}
	return encodeDBStats(st), nil
}

// handleUtility reports every entry's usage summary, in stem order so the
// response is deterministic for a given state.
func (s *Server) handleUtility() ([]byte, error) {
	entries, err := s.mgr.Entries()
	if err != nil {
		return nil, err
	}
	out := make([]UtilityEntry, len(entries))
	s.hitMu.Lock()
	for i, e := range entries {
		stem := core.FileStem(e.File)
		out[i] = UtilityEntry{Stem: stem, Hits: s.hits[stem], Traces: e.Traces, CodePool: e.CodePool}
	}
	s.hitMu.Unlock()
	return encodeUtilityEntries(out), nil
}

// handleEvict removes the named entries from the database — the
// enforcement half of the fleet's global eviction. Stems this shard does
// not hold are ignored (a replica set rarely lines up exactly).
func (s *Server) handleEvict(payload []byte) ([]byte, error) {
	stems, err := decodeEvictRequest(payload)
	if err != nil {
		return nil, err
	}
	rep := &EvictReport{}
	for _, stem := range stems {
		// A stem is a key set's lookup hash; anything else names no entry,
		// and must not name a path outside the database.
		if b, err := hex.DecodeString(stem); err != nil || len(b) != 16 {
			continue
		}
		e, err := s.mgr.Entry(stem + ".pcm")
		if errors.Is(err, core.ErrNoCache) {
			continue
		}
		if err == nil {
			err = s.mgr.RemoveEntry(e.File)
		}
		if err != nil {
			return nil, err
		}
		s.hitMu.Lock()
		delete(s.hits, stem)
		s.hitMu.Unlock()
		rep.Evicted++
		rep.Traces += e.Traces
		s.logf("cacheserver: evicted %s (%d traces)", e.File, e.Traces)
	}
	return encodeEvictReport(rep), nil
}

// handleCompact reclaims store blobs no surviving manifest references
// (typically after an eviction round).
func (s *Server) handleCompact() ([]byte, error) {
	rep, err := s.mgr.CompactStore()
	if err != nil {
		return nil, err
	}
	return encodeCompactReport(rep), nil
}

// handleFetchManifests serves the entries a key request's scope covers
// (core.Manager.Candidates) in one round trip, exact entry first — with
// ScopeBest only the first of them: each travels as its compact manifest,
// read verbatim from disk (the client resolves its blobs separately,
// hitting its local store first). ScopeExact reads the entry's manifest
// alone, without listing the database.
// Only the entries sent count as hits. Entries gone since listed are
// skipped; the response is capped by maxBulkFiles and the frame bound.
func (s *Server) handleFetchManifests(payload []byte) ([]byte, error) {
	ks, scope, err := decodeKeyRequest(payload)
	if err != nil {
		return nil, err
	}
	cands := []core.IndexEntry{{File: ks.ManifestFileName()}}
	if scope != ScopeExact {
		if cands, err = s.mgr.Candidates(ks, true); err != nil {
			return nil, err
		}
	}
	limit := maxBulkFiles
	if scope == ScopeBest {
		limit = 1
	}
	var items []ManifestItem
	total := 0
	for _, c := range cands {
		if len(items) >= limit {
			break
		}
		it := ManifestItem{Kind: ItemKindManifest}
		if it.Data, err = s.mgr.ManifestBytes(c.File); err != nil {
			continue
		}
		// Leave room for the count/kind/length framing and the status byte.
		if total+len(it.Data)+9*(len(items)+2) > s.maxFrame {
			break
		}
		items = append(items, it)
		total += len(it.Data)
		s.hitMu.Lock()
		s.hits[core.FileStem(c.File)]++
		s.hitMu.Unlock()
	}
	if len(items) == 0 {
		return nil, core.ErrNoCache
	}
	return encodeManifestItems(items), nil
}

// handleFetchPacks serves the pack files that hold the requested blobs,
// byte for byte from the daemon's content store (store.PackFiles, which
// verifies each pack whole the first time it serves it). The daemon serves
// by hash; the key set only routes a fleet's request to the entry's owners.
// Hashes it does not hold are in no pack.
func (s *Server) handleFetchPacks(payload []byte) ([]byte, error) {
	_, hashes, err := decodePackRequest(payload)
	if err != nil {
		return nil, err
	}
	st, err := s.mgr.Store()
	if err != nil {
		return nil, err
	}
	// Leave room for the count, one length per pack (at most one pack per
	// hash) and the status byte.
	return encodePackFiles(st.PackFiles(hashes, s.maxFrame-4*(len(hashes)+2))), nil
}
