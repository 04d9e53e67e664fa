package fleet

import (
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"persistcc/internal/cacheserver"
	"persistcc/internal/core"
	"persistcc/internal/metrics"
	"persistcc/internal/store"
)

// Client routes cache traffic across the fleet: trace keys (cache-file
// stems) and blob keys (content hashes) place on the consistent-hash ring,
// writes go to every owner in the replica set, and reads walk the owners in
// ring order — the primary first, then replicas when the primary is down
// (its circuit breaker fast-fails), unreachable, or cold for the key.
//
// Client implements cacheserver.Transport, so cacheserver.NewFallback
// fronts it: only when every owner of a key fails does an operation
// degrade to the run's local database. Over Single it is the client of
// one daemon.
// Safe for concurrent use.
type Client struct {
	cfg       *Config
	ring      *ring
	replicas  int
	clients   []*cacheserver.Client // one per shard, index-aligned with cfg.Shards
	shardOpts []cacheserver.ClientOption
	registry  *metrics.Registry
	m         *fleetMetrics
}

// Option configures a fleet client.
type Option func(*Client)

// WithMetrics records the fleet's counters (and every shard client's) into
// reg instead of a private registry.
func WithMetrics(reg *metrics.Registry) Option {
	return func(c *Client) {
		if reg != nil {
			c.registry = reg
		}
	}
}

// WithShardOptions forwards options (retry policy, timeouts, breaker
// tuning) to every per-shard cacheserver.Client.
func WithShardOptions(opts ...cacheserver.ClientOption) Option {
	return func(c *Client) { c.shardOpts = append(c.shardOpts, opts...) }
}

// New builds a routing client over a validated membership config.
func New(cfg *Config, opts ...Option) (*Client, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Client{
		cfg:      cfg,
		ring:     newRing(cfg),
		replicas: cfg.EffectiveReplicas(),
	}
	for _, o := range opts {
		o(c)
	}
	if c.registry == nil {
		c.registry = metrics.NewRegistry()
	}
	c.m = newFleetMetrics(c.registry)
	c.m.shards.Set(float64(len(cfg.Shards)))
	c.clients = make([]*cacheserver.Client, len(cfg.Shards))
	for i, s := range cfg.Shards {
		shardOpts := append([]cacheserver.ClientOption{
			cacheserver.WithClientMetrics(c.registry),
		}, c.shardOpts...)
		c.clients[i] = cacheserver.NewClient(s.Addr, shardOpts...)
	}
	return c, nil
}

// Config returns the membership this client routes by.
func (c *Client) Config() *Config { return c.cfg }

// Addr identifies the fleet in logs and event records.
func (c *Client) Addr() string {
	ids := make([]string, len(c.cfg.Shards))
	for i, s := range c.cfg.Shards {
		ids[i] = s.ID
	}
	return "fleet:" + strings.Join(ids, ",")
}

// Metrics returns the registry shared by the fleet families and every
// shard client's pcc_client_* families.
func (c *Client) Metrics() *metrics.Registry { return c.registry }

// Close closes every shard client.
func (c *Client) Close() error {
	var first error
	for _, sc := range c.clients {
		if err := sc.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// StemFor is the routing key for a key set: its manifest's stem, the same
// identity the daemons name entries by.
func StemFor(ks core.KeySet) string {
	return core.FileStem(ks.ManifestFileName())
}

// blobKey is the routing key for a content hash.
func blobKey(h store.Hash) string { return hex.EncodeToString(h[:]) }

// Owners returns the replica set for a routing key as shard IDs, primary
// first — the placement contract the tests assert.
func (c *Client) Owners(key string) []string {
	idxs := c.ring.owners(key, c.replicas)
	out := make([]string, len(idxs))
	for i, si := range idxs {
		out[i] = c.cfg.Shards[si].ID
	}
	return out
}

// readOwners walks a key's owners until one serves the request. Transport
// errors and per-shard misses both advance the walk (a write that landed
// while the primary was down lives only on replicas); a miss anywhere with
// no success means ErrNoCache, and only all-transport-failure surfaces as
// an error — which Fallback then degrades to the local tier.
func (c *Client) readOwners(owners []int, ks core.KeySet, scope cacheserver.Scope) ([]cacheserver.ManifestItem, error) {
	miss := false
	var lastErr error
	for rank, si := range owners {
		items, err := c.clients[si].FetchEntries(ks, scope)
		if err == nil {
			if rank > 0 {
				c.m.redirects.With("fetchmanifests").Inc()
			}
			return items, nil
		}
		if errors.Is(err, core.ErrNoCache) {
			miss = true
			continue
		}
		lastErr = err
	}
	if miss || lastErr == nil {
		return nil, core.ErrNoCache
	}
	return nil, lastErr
}

// route records the logical op against its primary owner and returns the
// owner walk for the key.
func (c *Client) route(op, key string) []int {
	owners := c.ring.owners(key, c.replicas)
	c.m.requests.With(op, c.cfg.Shards[owners[0]].ID).Inc()
	return owners
}

// FetchEntries retrieves the entries the key request's scope covers. The
// key's owners answer ScopeExact and ScopeBest (readOwners: primary first,
// replicas on failure or miss), so ScopeBest brings one entry — the exact
// one, or else the primary owner's best candidate — as one daemon would
// answer. ScopeInterApp is one scatter: every shard is asked once, the
// key's owners first in ring order, then the rest, since same-class
// candidates hash anywhere on the ring; the responses merge with
// content-level dedup, so a one-shard fleet sends what one daemon
// receives. The exact entry comes first when the primary holds it;
// Fallback installs it first either way.
func (c *Client) FetchEntries(ks core.KeySet, scope cacheserver.Scope) ([]cacheserver.ManifestItem, error) {
	stem := StemFor(ks)
	owners := c.route("fetchmanifests", stem)
	if scope != cacheserver.ScopeInterApp {
		return c.readOwners(owners, ks, scope)
	}
	var out []cacheserver.ManifestItem
	seen := make(map[string]bool)
	miss := false
	var lastErr error
	for _, si := range c.ring.owners(stem, len(c.clients)) {
		items, err := c.clients[si].FetchEntries(ks, cacheserver.ScopeInterApp)
		if err != nil {
			// A dead or cold shard: candidates are best-effort.
			miss = miss || errors.Is(err, core.ErrNoCache)
			lastErr = err
			continue
		}
		for _, it := range items {
			id := string(it.Kind) + string(it.Data)
			if seen[id] {
				continue
			}
			seen[id] = true
			out = append(out, it)
		}
	}
	if len(out) == 0 {
		if miss || lastErr == nil {
			return nil, core.ErrNoCache
		}
		return nil, lastErr
	}
	return out, nil
}

// FetchPacks asks the owners of the entry ks names — the shards Publish
// wrote its blobs to — for the packs holding hashes: the primary first,
// then each replica for the hashes no pack received so far lists. It fails
// only when no owner answers; hashes nobody holds are in no pack, and the
// caller re-translates their traces.
func (c *Client) FetchPacks(ks core.KeySet, hashes []store.Hash) ([][]byte, error) {
	return c.walkPacks("fetchpacks", c.route("fetchpacks", StemFor(ks)), ks, hashes)
}

// FetchBlobs resolves bare content hashes across the fleet through
// FETCHPACKS. No entry names them, so every shard may be asked: in ring
// order from the first hash, each for what the ones before it missed.
// Hashes nobody holds are absent from the result. No launch reads blobs
// this way; tools and probes do.
func (c *Client) FetchBlobs(hashes []store.Hash) (map[store.Hash][]byte, error) {
	if len(hashes) == 0 {
		return map[store.Hash][]byte{}, nil
	}
	order := c.ring.owners(blobKey(hashes[0]), len(c.clients))
	c.m.requests.With("fetchblobs", c.cfg.Shards[order[0]].ID).Inc()
	packs, err := c.walkPacks("fetchblobs", order, core.KeySet{}, hashes)
	if err != nil {
		return nil, err
	}
	return cacheserver.BlobsFromPacks(packs, hashes)
}

// walkPacks asks the shards in order for the packs holding hashes, each
// only for the hashes no pack received so far lists. A pack whose index
// does not parse is dropped, so its hashes go to the next shard. It fails
// only when no shard answers.
func (c *Client) walkPacks(op string, order []int, ks core.KeySet, hashes []store.Hash) ([][]byte, error) {
	var packs [][]byte
	var lastErr error
	answered := false
	remaining := hashes
	for rank, si := range order {
		if len(remaining) == 0 {
			break
		}
		got, err := c.clients[si].FetchPacks(ks, remaining)
		if err != nil {
			lastErr = err
			continue
		}
		answered = true
		listed := make(map[store.Hash]bool)
		for _, p := range got {
			hs, err := store.PackHashes(p)
			if err != nil {
				continue
			}
			for _, h := range hs {
				listed[h] = true
			}
			packs = append(packs, p)
		}
		var miss []store.Hash
		for _, h := range remaining {
			if !listed[h] {
				miss = append(miss, h)
			}
		}
		if rank > 0 && len(miss) < len(remaining) {
			c.m.redirects.With(op).Inc()
		}
		remaining = miss
	}
	if !answered {
		return nil, lastErr
	}
	return packs, nil
}

var _ cacheserver.Transport = (*Client)(nil)

// Publish writes the cache file to every owner in its replica set at once,
// its payload built once for all of them. The publish succeeds if at least
// one owner accepts it (the primary's report preferred); per-owner failures
// are counted and absorbed — that is what the replicas are for.
func (c *Client) Publish(cf *core.CacheFile) (*core.CommitReport, error) {
	ks := core.KeySet{App: cf.AppKey, VM: cf.VMKey, Tool: cf.ToolKey}
	owners := c.route("publish", StemFor(ks))
	b, err := cacheserver.EncodePublication(cf, false)
	if err != nil {
		return nil, err
	}
	reps, errs := make([]*core.CommitReport, len(owners)), make([]error, len(owners))
	var wg sync.WaitGroup
	for rank, si := range owners {
		wg.Add(1)
		go func() { defer wg.Done(); reps[rank], errs[rank] = c.clients[si].Send(cf, b) }()
	}
	wg.Wait()
	var rep *core.CommitReport
	var lastErr error
	for rank, err := range errs {
		if err != nil {
			c.m.writeErrors.Inc()
			lastErr = err
			continue
		}
		if rep == nil {
			rep = reps[rank]
		}
		if rank > 0 {
			c.m.replicaWrites.Inc()
		}
	}
	if rep == nil {
		return nil, fmt.Errorf("fleet: publish failed on all %d owners: %w", len(owners), lastErr)
	}
	return rep, nil
}

// ShardView is one shard's answer to a fan-out inspection.
type ShardView struct {
	ID    string
	Stats *core.DBStats
	Err   error
}

// StatsByShard fetches each shard's own totals.
func (c *Client) StatsByShard() []ShardView {
	out := make([]ShardView, len(c.cfg.Shards))
	for i, s := range c.cfg.Shards {
		st, err := c.clients[i].Stats()
		out[i] = ShardView{ID: s.ID, Stats: st, Err: err}
	}
	return out
}

// Stats aggregates totals across every reachable shard; it fails only when
// no shard answers.
func (c *Client) Stats() (*core.DBStats, error) {
	views := c.StatsByShard()
	var agg *core.DBStats
	var lastErr error
	for _, v := range views {
		if v.Err != nil {
			lastErr = v.Err
			continue
		}
		if agg == nil {
			agg = v.Stats
			continue
		}
		mergeDBStats(agg, v.Stats)
	}
	if agg == nil {
		return nil, fmt.Errorf("fleet: no shard reachable: %w", lastErr)
	}
	return agg, nil
}

// mergeDBStats folds src into dst: totals and key classes sum; store-side
// counts sum, and the dedup ratio (1 − physical/logical per shard) becomes
// the LogicalBytes-weighted mean of the two, which is exact: each side's
// physical bytes are (1 − ratio)·logical.
func mergeDBStats(dst, src *core.DBStats) {
	dst.Files += src.Files
	dst.Traces += src.Traces
	dst.CodePool += src.CodePool
	dst.DataPool += src.DataPool
	for _, c := range src.Classes {
		merged := false
		for i := range dst.Classes {
			if dst.Classes[i].VM == c.VM && dst.Classes[i].Tool == c.Tool {
				dst.Classes[i].Entries += c.Entries
				dst.Classes[i].Traces += c.Traces
				merged = true
				break
			}
		}
		if !merged {
			dst.Classes = append(dst.Classes, c)
		}
	}
	sort.Slice(dst.Classes, func(i, j int) bool {
		a, b := dst.Classes[i], dst.Classes[j]
		if a.VM != b.VM {
			return a.VM < b.VM
		}
		return a.Tool < b.Tool
	})
	if src.Store != nil {
		if dst.Store == nil {
			dst.Store = &core.StoreDBStats{}
		}
		dst.Store.Manifests += src.Store.Manifests
		dst.Store.Blobs += src.Store.Blobs
		dst.Store.BlobBytes += src.Store.BlobBytes
		if logical := dst.Store.LogicalBytes + src.Store.LogicalBytes; logical > 0 {
			// A running mean: src's weight is exactly 1 into an empty dst.
			weight := float64(src.Store.LogicalBytes) / float64(logical)
			dst.Store.DedupRatio += (src.Store.DedupRatio - dst.Store.DedupRatio) * weight
		}
		dst.Store.LogicalBytes += src.Store.LogicalBytes
		if src.Store.Generations > dst.Store.Generations {
			dst.Store.Generations = src.Store.Generations
		}
	}
}

// CompactReport summarizes one fleet-wide utility compaction round.
type CompactReport struct {
	Entries       int      // distinct entries (stems) across the fleet
	Kept          int      // entries retained
	Evicted       int      // per-shard evictions performed (a stem on R shards counts R)
	EvictedTraces int      // translated traces those evictions dropped
	FloorUtility  uint64   // the admission floor: minimum utility among kept entries
	Reclaimed     uint64   // bytes reclaimed by the per-shard store compactions
	PrunedOrphans int      // orphaned blobs deleted by those compactions
	Failed        []string // IDs of the shards whose summary, evict or compact failed
}

// GlobalCompact is the fleet's ShareJIT-style global cache management: it
// gathers every shard's per-entry usage summaries, ranks entries
// fleet-wide by utility — hit frequency × translation cost, with replica
// hit counts summed — keeps the top `keep`, evicts the rest from every
// shard that holds them, and runs store compaction per shard
// to reclaim the freed blobs. The minimum utility among survivors is
// reported as the admission floor. keep ≤ 0 evicts nothing (report and
// compact only). A shard whose summary, evict or compact fails does not
// stop the round; the report names it in Failed.
func (c *Client) GlobalCompact(keep int) (*CompactReport, error) {
	type stemAgg struct {
		stem    string
		hits    uint64
		traces  int
		utility uint64
	}
	agg := make(map[string]*stemAgg)
	reached := make([]bool, len(c.clients))
	reachable := 0
	var lastErr error
	for si := range c.clients {
		entries, err := c.clients[si].UtilitySummary()
		if err != nil {
			lastErr = err
			continue
		}
		reached[si] = true
		reachable++
		for _, e := range entries {
			a := agg[e.Stem]
			if a == nil {
				a = &stemAgg{stem: e.Stem}
				agg[e.Stem] = a
			}
			a.hits += e.Hits
			if e.Traces > a.traces {
				a.traces = e.Traces
			}
		}
	}
	if reachable == 0 {
		return nil, fmt.Errorf("fleet: no shard reachable for utility summary: %w", lastErr)
	}
	ranked := make([]*stemAgg, 0, len(agg))
	for _, a := range agg {
		a.utility = a.hits * uint64(a.traces)
		ranked = append(ranked, a)
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].utility != ranked[j].utility {
			return ranked[i].utility > ranked[j].utility
		}
		return ranked[i].stem < ranked[j].stem
	})
	rep := &CompactReport{Entries: len(ranked)}
	var evict []string
	if keep > 0 && keep < len(ranked) {
		for _, a := range ranked[keep:] {
			evict = append(evict, a.stem)
		}
		rep.Kept = keep
		rep.FloorUtility = ranked[keep-1].utility
	} else {
		rep.Kept = len(ranked)
		if len(ranked) > 0 {
			rep.FloorUtility = ranked[len(ranked)-1].utility
		}
	}
	for si := range c.clients {
		// A shard that missed the summary is not asked to evict or
		// compact: were it stopped, each would wait out its deadline.
		if !reached[si] || c.maintain(si, evict, rep) != nil {
			rep.Failed = append(rep.Failed, c.cfg.Shards[si].ID)
		}
	}
	return rep, nil
}

// maintain evicts the given stems from one shard and compacts its store,
// adding what it did to rep.
func (c *Client) maintain(si int, evict []string, rep *CompactReport) error {
	if len(evict) > 0 {
		er, err := c.clients[si].Evict(evict)
		if err != nil {
			return err
		}
		rep.Evicted += er.Evicted
		rep.EvictedTraces += er.Traces
		c.m.evictions.Add(uint64(er.Evicted))
	}
	cr, err := c.clients[si].CompactStore()
	if err != nil {
		return err
	}
	rep.Reclaimed += cr.ReclaimedBytes
	rep.PrunedOrphans += cr.PrunedOrphans
	return nil
}
