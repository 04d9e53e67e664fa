package cacheserver

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"slices"
	"strings"
	"sync"
	"time"

	"persistcc/internal/binenc"
	"persistcc/internal/core"
	"persistcc/internal/metrics"
	tracelog "persistcc/internal/metrics/trace"
	"persistcc/internal/store"
	"persistcc/internal/vm"
)

// ErrBreakerOpen is returned without touching the network while the
// client's circuit breaker is open: the daemon failed several consecutive
// requests, or one round trip hit its deadline, so further attempts
// fast-fail (Fallback degrades them to the local database) until a
// background probe completes a round trip with the daemon again.
var ErrBreakerOpen = errors.New("cacheserver: circuit breaker open, daemon unreachable")

// Round-trip deadlines, so that a daemon which accepts but never answers —
// stopped, or wedged — is a transport error, not a hung run: a base for the
// daemon's work plus the frame's bytes at ioMinRate, set when the request
// goes out and again for the response's bytes when its header arrives. A
// round trip that hits one is not retried, and opens the breaker at once: a
// launch starts a fresh client, so a daemon that answers nothing must cost
// it one deadline, not one per request. On a 2-core machine over
// loopback, launch-path ops took at most 151 ms under `go test -race`.
// COMPACT grows with the daemon's database
// (about 5 ms per MB) and EVICT with its stems; a launch sends neither, so
// they get maintenanceBase, about 100 GB of database at that rate.
const (
	ioBase          = 5 * time.Second
	maintenanceBase = 10 * time.Minute
	ioMinRate       = 1 << 20 // bytes per second: MaxFrame in 256 s
)

// Client talks the cache-server protocol over one connection, redialing
// transparently. Safe for concurrent use; requests are serialized on the
// connection.
type Client struct {
	addr        string
	dialTimeout time.Duration
	retries     int           // additional attempts after the first
	backoff     time.Duration // doubled per retry
	maxFrame    int

	baseDeadline        time.Duration // a round trip's, before its frame bytes
	maintenanceDeadline time.Duration // the same, for COMPACT and EVICT

	breakAfter    int           // consecutive failed requests before opening
	probeInterval time.Duration // cadence of background re-probes while open

	metrics *metrics.Registry
	m       *clientMetrics

	mu          sync.Mutex
	conn        net.Conn
	consecFails int
	breakerOpen bool
	probeStop   chan struct{} // non-nil while a prober goroutine runs
	closed      bool
}

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithDialTimeout bounds each connection attempt.
func WithDialTimeout(d time.Duration) ClientOption {
	return func(c *Client) { c.dialTimeout = d }
}

// WithRetry sets the bounded retry policy: attempts beyond the first, and
// the initial backoff (doubled per retry).
func WithRetry(retries int, backoff time.Duration) ClientOption {
	return func(c *Client) { c.retries, c.backoff = retries, backoff }
}

// WithClientMaxFrame overrides the per-frame size bound (default MaxFrame)
// the client will send or accept.
func WithClientMaxFrame(n int) ClientOption {
	return func(c *Client) {
		if n > 0 {
			c.maxFrame = n
		}
	}
}

// WithBreaker tunes the circuit breaker: after
// `after` consecutive failed requests (each already retried per WithRetry),
// or one that hit its round-trip deadline, the breaker opens and requests
// fast-fail with ErrBreakerOpen while a background prober tries a round
// trip every `probe` until the daemon answers one. `after` ≤ 0 disables
// the breaker.
func WithBreaker(after int, probe time.Duration) ClientOption {
	return func(c *Client) { c.breakAfter, c.probeInterval = after, probe }
}

// Addr returns the daemon address this client dials.
func (c *Client) Addr() string { return c.addr }

// NewClient prepares a client for addr ("unix:/path" or TCP "host:port").
// The connection is dialed lazily on the first request.
func NewClient(addr string, opts ...ClientOption) *Client {
	c := &Client{
		addr:                addr,
		dialTimeout:         2 * time.Second,
		retries:             2,
		backoff:             10 * time.Millisecond,
		maxFrame:            MaxFrame,
		breakAfter:          3,
		probeInterval:       250 * time.Millisecond,
		baseDeadline:        ioBase,
		maintenanceDeadline: maintenanceBase,
	}
	for _, o := range opts {
		o(c)
	}
	if c.metrics == nil {
		c.metrics = metrics.NewRegistry()
	}
	c.m = newClientMetrics(c.metrics)
	return c
}

// Close drops the connection and stops any background probe; a later
// request redials.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	if c.probeStop != nil {
		close(c.probeStop)
		c.probeStop = nil
	}
	if c.conn != nil {
		err := c.conn.Close()
		c.conn = nil
		return err
	}
	return nil
}

func (c *Client) dialLocked() error {
	if c.conn != nil {
		return nil
	}
	conn, err := c.dialRaw()
	if err != nil {
		return err
	}
	c.conn = conn
	return nil
}

// dialRaw opens one connection to the daemon; used by requests (under mu)
// and by the breaker's prober (outside mu).
func (c *Client) dialRaw() (net.Conn, error) {
	network, address := "tcp", c.addr
	if path, ok := strings.CutPrefix(c.addr, "unix:"); ok {
		network, address = "unix", path
	}
	return net.DialTimeout(network, address, c.dialTimeout)
}

// remoteError is a failure the server reported; retrying the same request
// would just fail again, unlike a transport error.
type remoteError struct{ msg string }

func (e *remoteError) Error() string { return "cacheserver: server: " + e.msg }

// do performs one request with bounded retry+backoff on transport errors.
// Consecutive fully-failed requests, or one round trip that hit its
// deadline, trip the circuit breaker: while it is open, requests return
// ErrBreakerOpen immediately (no dial, no retries, no backoff sleep) and a
// background prober tries a round trip until the daemon answers one.
func (c *Client) do(op uint8, payload []byte) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = false // the client is in use again
	c.m.requests.With(opName(op)).Inc()
	if c.breakerOpen {
		c.m.breakerFast.Inc()
		return nil, ErrBreakerOpen
	}
	backoff := c.backoff
	var lastErr error
	wedged := false
	for attempt := 0; attempt <= c.retries; attempt++ {
		if attempt > 0 {
			c.m.retries.Inc()
			time.Sleep(backoff)
			backoff *= 2
		}
		if err := c.dialLocked(); err != nil {
			c.m.dialErrors.Inc()
			lastErr = err
			continue
		}
		status, resp, err := c.roundTrip(c.conn, op, payload)
		if err != nil {
			// Transport failure mid-request: the stream position is
			// unknown, so sever and redial before retrying.
			c.conn.Close()
			c.conn = nil
			if errors.Is(err, errFrameTooLarge) {
				// Our own payload exceeds the frame bound; retrying or
				// blaming the daemon would both be wrong.
				return nil, err
			}
			lastErr = err
			if errors.Is(err, os.ErrDeadlineExceeded) {
				wedged = true // asking again, now or later in the run, only waits again
				break
			}
			continue
		}
		c.consecFails = 0
		switch status {
		case StatusOK:
			return resp, nil
		case StatusNotFound:
			return nil, core.ErrNoCache
		case StatusError:
			r := &binenc.Reader{Buf: resp}
			return nil, &remoteError{msg: r.Str(maxErrLen)}
		default:
			return nil, fmt.Errorf("cacheserver: unknown status %d", status)
		}
	}
	c.consecFails++
	if c.breakAfter > 0 && (wedged || c.consecFails >= c.breakAfter) && !c.breakerOpen {
		c.breakerOpen = true
		c.m.breakerOpens.Inc()
		c.m.breakerState.Set(1)
		stop := make(chan struct{})
		c.probeStop = stop
		go c.probe(stop)
	}
	return nil, fmt.Errorf("cacheserver: %s unreachable: %w", c.addr, lastErr)
}

// probe tries a round trip with the daemon in the background until one
// completes, then closes the breaker. A completed dial is not enough: a
// wedged daemon's kernel completes connections nobody serves. The round trip
// is an exact LOOKUP of the zero key set, which every daemon answers (not
// found) without touching its disk. Runs while the breaker is open; stops on
// Close.
func (c *Client) probe(stop chan struct{}) {
	t := time.NewTicker(c.probeInterval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		conn, err := c.dialRaw()
		if err != nil {
			continue
		}
		if _, _, err := c.roundTrip(conn, OpLookup, encodeKeyRequest(core.KeySet{}, ScopeExact)); err != nil {
			conn.Close()
			continue
		}
		c.mu.Lock()
		if c.closed || c.probeStop != stop {
			c.mu.Unlock()
			conn.Close()
			return
		}
		// Hand the probed connection to the client so the next request
		// reuses it instead of dialing again.
		if c.conn == nil {
			c.conn = conn
		} else {
			conn.Close()
		}
		c.breakerOpen = false
		c.consecFails = 0
		c.probeStop = nil
		c.m.breakerState.Set(0)
		c.mu.Unlock()
		return
	}
}

// roundTrip sends one request on conn and reads its answer within the
// op's deadline. It reads only fields fixed at construction, so the prober
// calls it outside mu on a connection of its own.
func (c *Client) roundTrip(conn net.Conn, op uint8, payload []byte) (uint8, []byte, error) {
	base := c.baseDeadline
	if op == OpCompact || op == OpEvict {
		base = c.maintenanceDeadline
	}
	conn.SetDeadline(time.Now().Add(base + wireTime(len(payload))))
	if err := writeFrame(conn, op, payload, c.maxFrame); err != nil {
		return 0, nil, err
	}
	status, n, err := readFrameHeader(conn, c.maxFrame)
	if err != nil {
		return 0, nil, err
	}
	conn.SetDeadline(time.Now().Add(c.baseDeadline + wireTime(n)))
	resp := make([]byte, n)
	if _, err := io.ReadFull(conn, resp); err != nil {
		return 0, nil, err
	}
	return status, resp, nil
}

// wireTime is how long n frame bytes may take at ioMinRate.
func wireTime(n int) time.Duration {
	return time.Duration(n) * time.Second / ioMinRate
}

// Lookup asks whether the server holds a cache for the key set, without
// transferring it.
func (c *Client) Lookup(ks core.KeySet, interApp bool) (*LookupInfo, error) {
	resp, err := c.do(OpLookup, encodeKeyRequest(ks, scopeOf(interApp)))
	if err != nil {
		return nil, err
	}
	return decodeLookupInfo(resp)
}

// FetchManifests is FetchEntries with ScopeExact, or with interApp
// ScopeInterApp.
func (c *Client) FetchManifests(ks core.KeySet, interApp bool) ([]ManifestItem, error) {
	return c.FetchEntries(ks, scopeOf(interApp))
}

// FetchEntries retrieves, in one round trip, the entries the server holds
// for the key set within scope — the exact match first, then the
// same-class candidates, best first — each as its raw manifest. A
// manifest's blobs resolve separately, from the machine-local store before
// the wire (FetchPacks).
func (c *Client) FetchEntries(ks core.KeySet, scope Scope) ([]ManifestItem, error) {
	resp, err := c.do(OpFetchManifests, encodeKeyRequest(ks, scope))
	if err != nil {
		return nil, err
	}
	items, err := decodeManifestItems(resp)
	if err != nil {
		return nil, err
	}
	if len(items) == 0 {
		return nil, core.ErrNoCache
	}
	return items, nil
}

// FetchPacks retrieves, in one round trip, the daemon's pack files that
// hold the blobs with the given hashes — the ones this machine is missing
// of the entry ks names. Packs come whole, byte for byte as the daemon
// stores them, so they may hold blobs nobody asked for; hashes the daemon
// does not hold are in none of them. Nothing is verified here:
// store.AdoptPacks checks every pack before the local store takes it.
func (c *Client) FetchPacks(ks core.KeySet, hashes []store.Hash) ([][]byte, error) {
	resp, err := c.do(OpFetchPacks, encodePackRequest(ks, hashes))
	if err != nil {
		return nil, err
	}
	return decodePackFiles(resp)
}

// FetchBlobs retrieves encoded blobs by hash through FETCHPACKS; hashes the
// daemon does not hold are absent from the result. No launch reads blobs
// this way — a prime adopts the packs whole — but tools and probes that
// want the encodings themselves do.
func (c *Client) FetchBlobs(hashes []store.Hash) (map[store.Hash][]byte, error) {
	packs, err := c.FetchPacks(core.KeySet{}, hashes)
	if err != nil {
		return nil, err
	}
	return BlobsFromPacks(packs, hashes)
}

// BlobsFromPacks verifies each pack file whole and returns the encodings
// of those of hashes the packs hold.
func BlobsFromPacks(packs [][]byte, hashes []store.Hash) (map[store.Hash][]byte, error) {
	want := make(map[store.Hash]bool, len(hashes))
	for _, h := range hashes {
		want[h] = true
	}
	out := make(map[store.Hash][]byte, len(hashes))
	for _, data := range packs {
		p, err := store.DecodePack(data)
		if err != nil {
			return nil, err
		}
		for i, h := range p.Hashes {
			if want[h] {
				out[h] = p.Encs[i]
			}
		}
	}
	return out, nil
}

// Publish sends the run cf holds for a server-side commit (Send).
func (c *Client) Publish(cf *core.CacheFile) (*core.CommitReport, error) {
	b, err := EncodePublication(cf, false)
	if err != nil {
		return nil, err
	}
	return c.Send(cf, b)
}

// EncodePublication builds cf's PUBLISH payload (core.NewPublication).
func EncodePublication(cf *core.CacheFile, all bool) ([]byte, error) {
	pub, err := core.NewPublication(cf, all)
	if err != nil {
		return nil, err
	}
	return encodePublication(pub), nil
}

// Send publishes cf, whose payload by address is b, and sends it once more
// with every blob when the daemon lacks a blob b names (not found).
func (c *Client) Send(cf *core.CacheFile, b []byte) (*core.CommitReport, error) {
	resp, err := c.do(OpPublish, b)
	if errors.Is(err, core.ErrNoCache) {
		if b, err = EncodePublication(cf, true); err == nil {
			resp, err = c.do(OpPublish, b)
		}
	}
	if err != nil {
		return nil, err
	}
	return decodeCommitReport(resp)
}

// Stats fetches the daemon's per-database totals: its own database only,
// whatever fleet it serves in.
func (c *Client) Stats() (*core.DBStats, error) {
	resp, err := c.do(OpStats, nil)
	if err != nil {
		return nil, err
	}
	return decodeDBStats(resp)
}

// UtilitySummary fetches the daemon's per-entry usage summaries — the raw
// material of the fleet's global eviction decision.
func (c *Client) UtilitySummary() ([]UtilityEntry, error) {
	resp, err := c.do(OpUtility, nil)
	if err != nil {
		return nil, err
	}
	return decodeUtilityEntries(resp)
}

// Evict removes the named entries (by file stem) from the daemon's
// database. Stems the daemon does not hold are ignored.
func (c *Client) Evict(stems []string) (*EvictReport, error) {
	resp, err := c.do(OpEvict, encodeEvictRequest(stems))
	if err != nil {
		return nil, err
	}
	return decodeEvictReport(resp)
}

// CompactStore asks the daemon to compact its content-addressed store,
// reclaiming blobs orphaned by eviction.
func (c *Client) CompactStore() (*store.CompactReport, error) {
	resp, err := c.do(OpCompact, nil)
	if err != nil {
		return nil, err
	}
	return decodeCompactReport(resp)
}

// Manager is the persistence surface a run needs; *core.Manager (local
// database) and *Fallback (shared server with local degradation) both
// satisfy it.
type Manager interface {
	Prime(v *vm.VM) (*core.PrimeReport, error)
	PrimeInterApp(v *vm.VM) (*core.PrimeReport, error)
	Commit(v *vm.VM) (*core.CommitReport, error)
}

var (
	_ Manager = (*core.Manager)(nil)
	_ Manager = (*Fallback)(nil)
)

// Transport is the wire surface Fallback needs from whatever carries its
// requests. A run's transport is a fleet.Client, over one daemon
// (fleet.Single) or many; this is an interface only because package fleet
// imports this one. Implementations must degrade internally as far as they
// can (retries, replicas); Fallback handles the final tier, the local
// database.
type Transport interface {
	FetchEntries(ks core.KeySet, scope Scope) ([]ManifestItem, error)
	Publish(cf *core.CacheFile) (*core.CommitReport, error)
	FetchPacks(ks core.KeySet, hashes []store.Hash) ([][]byte, error)
	Addr() string
	Metrics() *metrics.Registry
}

var _ Transport = (*Client)(nil)

// Fallback fronts the shared cache daemons with a local database: every
// operation tries the transport first and degrades to the local
// core.Manager on connect/IO error, corrupt payloads, or server-side
// failure — a dead daemon never breaks a run. Cache misses also consult the
// local database, so translations committed while the server was down stay
// reachable, and so does every entry a run launched from (see Commit).
type Fallback struct {
	client    Transport
	local     *core.Manager
	fallbacks *metrics.CounterVec // op=prime|commit

	// primed holds, per VM primed from the transport's exact entry, what
	// Commit needs of that entry to tell whether the run added to it.
	// Commit takes the VM's record out.
	mu     sync.Mutex
	primed map[*vm.VM]primedEntry
}

// primedEntry is the exact entry a VM was primed from: its size and module
// table.
type primedEntry struct {
	traces  int
	modules []core.ModuleRecord
}

// NewFallback combines a transport and the local fallback manager.
func NewFallback(client Transport, local *core.Manager) *Fallback {
	return &Fallback{
		client: client,
		local:  local,
		fallbacks: client.Metrics().CounterVec("pcc_client_fallbacks_total",
			"operations degraded to the local database", "op"),
		primed: make(map[*vm.VM]primedEntry),
	}
}

// Local returns the fallback database manager.
func (f *Fallback) Local() *core.Manager { return f.local }

// prime is the one remote warm path. One FETCHMANIFESTS request per shard
// asked brings back the entries the key request covers: with all set every
// one of them (the bulk prime), otherwise only the first — the exact
// entry, or the best inter-application candidate (ScopeBest). The exact
// entry installs first, wherever it came in the answer. An entry arrives
// as its manifest, which is judged against the VM before anything else
// moves; the packs holding the blobs of the traces that install, where the
// machine-local store lacks them, follow through FETCHPACKS, and once the
// store has adopted them the manifest reads as on a local warm launch.
// An item that does not decode as a manifest is skipped. A miss, a failed
// transport or nothing installable degrades to the local database.
func (f *Fallback) prime(v *vm.VM, interApp, all bool) (*core.PrimeReport, error) {
	scope := ScopeExact
	if interApp && all {
		scope = ScopeInterApp
	} else if interApp {
		scope = ScopeBest
	}
	ks := core.KeysFor(v)
	items, err := f.client.FetchEntries(ks, scope)
	if errors.Is(err, core.ErrNoCache) {
		// Server is healthy but cold for this key set; a local cache from
		// a previous degraded run may still exist.
		v.RecordRemote(1, 0, 0)
		return f.localPrime(v, interApp, all)
	}
	// The run's own entry installs first, wherever the transport put it (a
	// fleet's primary that missed the publish answers without it), and is
	// the one Commit measures the run against.
	entries := make([]*store.Manifest, 0, len(items))
	exact := 0
	for _, it := range items {
		man, err := decodeItem(it)
		if err != nil {
			continue // corrupt on the wire: try the rest
		}
		if man.AppKey == ks.App {
			entries = slices.Insert(entries, exact, man)
			exact++
		} else {
			entries = append(entries, man)
		}
	}
	agg := &core.PrimeReport{}
	for _, man := range entries {
		rep, err := f.primeFrom(v, man)
		if err != nil {
			continue // failed key validation, or blobs unresolvable; try the rest
		}
		if man.AppKey == ks.App && !agg.Found {
			f.mu.Lock()
			f.primed[v] = primedEntry{traces: rep.CacheTraces, modules: core.RecordModules(man.Modules)}
			f.mu.Unlock()
		}
		agg.Found = true
		agg.CacheTraces += rep.CacheTraces
		agg.Installed += rep.Installed
		agg.Rebased += rep.Rebased
		agg.InvalidMissing += rep.InvalidMissing
		agg.InvalidContent += rep.InvalidContent
		agg.InvalidBase += rep.InvalidBase
	}
	if !agg.Found {
		// The transport failed, or nothing it served passed validation; the
		// local database is still authoritative for this run.
		v.RecordRemote(1, 0, 1)
		f.fallbacks.With("prime").Inc()
		return f.localPrime(v, interApp, all)
	}
	v.RecordRemote(1, uint64(agg.Installed), 0)
	v.EventLog().Record(tracelog.Event{
		Kind: tracelog.KindFetch, Tick: v.Clock(), Traces: agg.Installed,
		Detail: f.client.Addr(),
	})
	return agg, nil
}

// decodeItem decodes one FETCHMANIFESTS item, which must be a manifest.
func decodeItem(it ManifestItem) (*store.Manifest, error) {
	if it.Kind != ItemKindManifest {
		return nil, fmt.Errorf("cacheserver: served item of kind %d is not a manifest", it.Kind)
	}
	return store.DecodeManifest(it.Data)
}

// primeFrom installs one served manifest through the local validation path.
// It is judged before any of its blobs is fetched: the packs asked of the
// entry's owners are those holding the blobs of the traces that install
// (core.Manager.PrimeFromManifest) and that the machine-local store lacks.
func (f *Fallback) primeFrom(v *vm.VM, man *store.Manifest) (*core.PrimeReport, error) {
	ks := core.KeySet{App: man.AppKey, VM: man.VMKey, Tool: man.ToolKey}
	return f.local.PrimeFromManifest(v, man, func(missing []store.Hash) ([][]byte, error) {
		return f.client.FetchPacks(ks, missing)
	})
}

// localPrime is the degraded prime. Prime and PrimeInterApp ask the local
// database for the one entry they name; a bulk prime takes the exact local
// entry first, then the inter-application candidate — the same order the
// facade uses when no server is configured.
func (f *Fallback) localPrime(v *vm.VM, interApp, all bool) (*core.PrimeReport, error) {
	if interApp && !all {
		return f.local.PrimeInterApp(v)
	}
	rep, err := f.local.Prime(v)
	if errors.Is(err, core.ErrNoCache) && interApp {
		return f.local.PrimeInterApp(v)
	}
	return rep, err
}

// Prime implements Manager.
func (f *Fallback) Prime(v *vm.VM) (*core.PrimeReport, error) { return f.prime(v, false, false) }

// PrimeInterApp implements Manager.
func (f *Fallback) PrimeInterApp(v *vm.VM) (*core.PrimeReport, error) { return f.prime(v, true, false) }

// PrimeStoreBulk is the prefetch-mode prime: one key request asks for
// every entry it covers (the exact entry plus, with interApp, every
// inter-application candidate), and all of them are installed together.
func (f *Fallback) PrimeStoreBulk(v *vm.VM, interApp bool) (*core.PrimeReport, error) {
	return f.prime(v, interApp, true)
}

// Commit publishes the run's traces to the server, or accumulates into the
// local database when the server cannot take them. A run primed from the
// transport's exact entry that adds nothing to it (core.Delta.AddsNothing,
// the rule every commit skips by) publishes nothing, since every owner
// already holds what it would send. It commits into the local database
// instead, whose store the prime's adopted packs already filled, so the
// machine keeps a copy of every entry it launched from and launches warm
// from it when the server is unreachable. Should the local database refuse
// that commit, the run publishes after all.
func (f *Fallback) Commit(v *vm.VM) (*core.CommitReport, error) {
	d := core.NewDelta(v)
	f.mu.Lock()
	entry, primed := f.primed[v]
	delete(f.primed, v)
	f.mu.Unlock()
	if primed && d.AddsNothing(entry.traces, entry.modules) {
		if rep, err := f.local.CommitFile(d); err == nil {
			rep.Charge(v, tracelog.KindCommit, rep.File)
			return rep, nil
		}
	}
	rep, err := f.client.Publish(d.CacheFile())
	if err != nil {
		v.RecordRemote(0, 0, 1)
		f.fallbacks.With("commit").Inc()
		crep, lerr := f.local.CommitFile(d)
		if lerr != nil {
			return nil, fmt.Errorf("cacheserver: publish failed (%v) and local fallback failed: %w", err, lerr)
		}
		crep.Charge(v, tracelog.KindCommit, crep.File)
		return crep, nil
	}
	rep.Charge(v, tracelog.KindPublish, f.client.Addr())
	return rep, nil
}
