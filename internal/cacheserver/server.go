package cacheserver

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"persistcc/internal/binenc"
	"persistcc/internal/core"
	"persistcc/internal/metrics"
)

// ErrServerClosed is returned by Serve after Close.
var ErrServerClosed = errors.New("cacheserver: server closed")

// entry is the in-memory state for one cache file.
type entry struct {
	meta core.IndexEntry // guarded by Server.idxMu

	// hits counts FETCHMANIFESTS responses that carried this entry since
	// daemon start — the frequency half of the fleet's utility ranking (hit
	// frequency × translation cost). Atomic so the read path never takes a
	// write lock.
	hits atomic.Uint64

	// mergeMu keeps a publish's commit and index update atomic against an
	// EVICT of the same stem. Commits themselves are serialized by the
	// manager's database lock; lookups proceed in parallel.
	mergeMu sync.Mutex

	// Single-flight dedup of concurrent identical publishes, keyed by the
	// payload digest: the first arrival merges, later identical arrivals
	// wait and share its report.
	flMu     sync.Mutex
	inflight map[[32]byte]*flight
}

type flight struct {
	done chan struct{}
	rep  *core.CommitReport
	err  error
}

// Server serves one persistent cache database to many client processes.
type Server struct {
	mgr *core.Manager

	// The in-memory index: one entry per manifest, keyed by file stem (the
	// key set's lookup hash). idxMu guards the map and every entry's meta.
	idxMu   sync.RWMutex
	entries map[string]*entry

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

// New builds a server over an opened database, loading its entry list
// into memory.
func New(mgr *core.Manager, opts ...Option) (*Server, error) {
	s := &Server{
		mgr:      mgr,
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
	entries, err := mgr.Entries()
	if err != nil {
		return nil, err
	}
	s.entries = make(map[string]*entry, len(entries))
	for _, e := range entries {
		s.entries[core.FileStem(e.File)] = &entry{meta: e, inflight: make(map[[32]byte]*flight)}
	}
	return s, nil
}

// entryFor returns the live entry for a cache file stem, creating it when
// create is set (publish of a first cache for a key set).
func (s *Server) entryFor(stem string, create bool) *entry {
	s.idxMu.RLock()
	e := s.entries[stem]
	s.idxMu.RUnlock()
	if e != nil || !create {
		return e
	}
	s.idxMu.Lock()
	defer s.idxMu.Unlock()
	if e = s.entries[stem]; e == nil {
		e = &entry{inflight: make(map[[32]byte]*flight)}
		s.entries[stem] = e
	}
	return e
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
		resp = s.handleStats()
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
	cands := s.candidates(ks, scope != ScopeExact)
	if len(cands) == 0 {
		return nil, core.ErrNoCache
	}
	meta := cands[0].meta
	return encodeLookupInfo(&LookupInfo{
		File: meta.File, AppPath: meta.AppPath, Traces: meta.Traces,
		CodePool: meta.CodePool, DataPool: meta.DataPool,
	}), nil
}

type candidate struct {
	e    *entry
	meta core.IndexEntry
}

// candidates enumerates the entries a key request covers, each with a
// consistent copy of its metadata: the exact entry first, then — in
// inter-application mode — every other entry of the same VM/Tool class
// ("allowing the function to return a cache corresponding to any
// application instrumented identically") in core.InterAppCandidates' order.
// Entries whose first publish is still in flight (empty metadata) are
// invisible.
func (s *Server) candidates(ks core.KeySet, interApp bool) []candidate {
	var out, all []candidate
	var metas []core.IndexEntry
	s.idxMu.RLock()
	if e := s.entries[core.FileStem(ks.ManifestFileName())]; e != nil && e.meta.File != "" {
		out = append(out, candidate{e, e.meta})
	}
	if interApp {
		for _, e := range s.entries {
			if e.meta.File != "" {
				all = append(all, candidate{e, e.meta})
				metas = append(metas, e.meta)
			}
		}
	}
	s.idxMu.RUnlock()
	for _, i := range core.InterAppCandidates(ks, metas) {
		out = append(out, all[i])
	}
	return out
}

// handlePublish merges a client's serialized cache file into the database.
func (s *Server) handlePublish(payload []byte) ([]byte, error) {
	incoming := new(core.CacheFile)
	if err := incoming.UnmarshalBinary(payload); err != nil {
		return nil, err
	}
	d := core.DeltaOf(incoming)
	e := s.entryFor(core.FileStem(d.Keys.ManifestFileName()), true)

	// Single-flight: concurrent identical publishes (several processes
	// exiting the same cold run at once) merge exactly once.
	digest := sha256.Sum256(payload)
	e.flMu.Lock()
	if f := e.inflight[digest]; f != nil {
		e.flMu.Unlock()
		s.m.dedups.Inc()
		<-f.done
		if f.err != nil {
			return nil, f.err
		}
		return encodeCommitReport(f.rep), nil
	}
	f := &flight{done: make(chan struct{})}
	e.inflight[digest] = f
	e.flMu.Unlock()

	f.rep, f.err = s.merge(e, d)
	e.flMu.Lock()
	delete(e.inflight, digest)
	e.flMu.Unlock()
	close(f.done)
	if f.err != nil {
		return nil, f.err
	}
	return encodeCommitReport(f.rep), nil
}

// merge commits a publish into the database the way a local commit does,
// through the manager under its database lock, and refreshes the entry's
// metadata from the report. An EVICT of the stem that ran while this publish
// waited took e out of the index; the entry is on disk again, so e goes back.
func (s *Server) merge(e *entry, d *core.Delta) (*core.CommitReport, error) {
	e.mergeMu.Lock()
	defer e.mergeMu.Unlock()
	rep, err := s.mgr.CommitFile(d)
	if err != nil || rep.Skipped {
		return rep, err
	}
	s.idxMu.Lock()
	e.meta = core.IndexEntry{
		App: d.Keys.App.Hex(), VM: d.Keys.VM.Hex(), Tool: d.Keys.Tool.Hex(), AppPath: d.AppPath,
		File: rep.File, Traces: rep.Traces, CodePool: rep.CodePool, DataPool: rep.DataPool,
	}
	s.entries[core.FileStem(rep.File)] = e
	s.idxMu.Unlock()
	s.logf("cacheserver: published %s: %d traces (%d new, %d dropped)", rep.File, rep.Traces, rep.NewTraces, rep.Dropped)
	return rep, nil
}

// handleStats answers STATS with this database's totals. A daemon answers
// for itself only — adding up a fleet is its client's job — so it ignores
// the payload, which older clients fill with a scope byte.
func (s *Server) handleStats() []byte {
	s.idxMu.RLock()
	entries := make([]core.IndexEntry, 0, len(s.entries))
	for _, e := range s.entries {
		entries = append(entries, e.meta)
	}
	s.idxMu.RUnlock()
	st := core.AggregateStats(entries)
	if ss, err := s.mgr.StoreStats(); err == nil {
		st.Store = ss
	}
	return encodeDBStats(st)
}

// handleUtility reports every entry's usage summary, sorted by stem so the
// response is deterministic for a given state.
func (s *Server) handleUtility() ([]byte, error) {
	var out []UtilityEntry
	s.idxMu.RLock()
	for stem, e := range s.entries {
		if e.meta.File == "" {
			continue // first publish still in flight
		}
		out = append(out, UtilityEntry{
			Stem:     stem,
			Hits:     e.hits.Load(),
			Traces:   e.meta.Traces,
			CodePool: e.meta.CodePool,
		})
	}
	s.idxMu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Stem < out[j].Stem })
	return encodeUtilityEntries(out), nil
}

// handleEvict removes the named entries from the database and the in-memory
// index — the enforcement half of the fleet's global eviction. Stems this
// shard does not hold are ignored (a replica set rarely lines up exactly).
func (s *Server) handleEvict(payload []byte) ([]byte, error) {
	stems, err := decodeEvictRequest(payload)
	if err != nil {
		return nil, err
	}
	rep := &EvictReport{}
	for _, stem := range stems {
		e := s.entryFor(stem, false)
		if e == nil {
			continue
		}
		// Serialize against publishes of the same key set so an eviction
		// cannot tear a concurrent merge.
		e.mergeMu.Lock()
		s.idxMu.Lock()
		meta := e.meta
		delete(s.entries, stem)
		s.idxMu.Unlock()
		var rerr error
		if meta.File != "" {
			rerr = s.mgr.RemoveEntry(meta.File)
		}
		e.mergeMu.Unlock()
		if rerr != nil {
			// Disk removal failed: restore the in-memory entry so the index
			// stays consistent with what is still servable.
			s.idxMu.Lock()
			s.entries[stem] = e
			s.idxMu.Unlock()
			return nil, rerr
		}
		rep.Evicted++
		rep.Traces += meta.Traces
		s.logf("cacheserver: evicted %s (%d traces)", meta.File, meta.Traces)
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
// (see candidates) in one round trip, exact entry first — with ScopeBest
// only the first of them: each travels as its compact manifest, read
// verbatim from disk (the client resolves its blobs separately, hitting its
// local store first).
// Only the entries sent count as hits. Entries gone since indexed are
// skipped; the response is capped by maxBulkFiles and the frame bound.
func (s *Server) handleFetchManifests(payload []byte) ([]byte, error) {
	ks, scope, err := decodeKeyRequest(payload)
	if err != nil {
		return nil, err
	}
	limit := maxBulkFiles
	if scope == ScopeBest {
		limit = 1
	}
	var items []ManifestItem
	total := 0
	for _, c := range s.candidates(ks, scope != ScopeExact) {
		if len(items) >= limit {
			break
		}
		it := ManifestItem{Kind: ItemKindManifest}
		if it.Data, err = s.mgr.ManifestBytes(c.meta.File); err != nil {
			continue
		}
		// Leave room for the count/kind/length framing and the status byte.
		if total+len(it.Data)+9*(len(items)+2) > s.maxFrame {
			break
		}
		items = append(items, it)
		total += len(it.Data)
		c.e.hits.Add(1)
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
