package core

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"persistcc/internal/fsx"
	"persistcc/internal/isa"
	"persistcc/internal/mem"
	"persistcc/internal/metrics"
	tracelog "persistcc/internal/metrics/trace"
	"persistcc/internal/obj"
	"persistcc/internal/store"
	"persistcc/internal/vm"
)

// Manager is the persistent cache manager: it performs "the fundamental
// tasks of generating persistent caches, verifying possible reuse, and
// storing them in the database". The database is a directory of manifests,
// each named by its key set and describing itself in its header, over a
// content-addressed store of trace blobs.
type Manager struct {
	dir         string
	relocatable bool
	deepVerify  bool
	fs          fsx.FS
	lockWait    time.Duration
	mu          sync.Mutex

	metrics *metrics.Registry
	m       *coreMetrics

	// Content-addressed store side (see storefmt.go), opened on first use.
	storeDir string
	stOnce   sync.Once
	st       *store.Store
	stErr    error

	lastDecoded atomic.Pointer[decodedManifest] // see decodeManifestAt
}

// ManagerOption configures a Manager.
type ManagerOption func(*Manager)

// WithRelocatable enables the relocatable-translation extension: traces
// whose mappings moved (but whose binaries are unchanged) are rebased
// instead of invalidated. This is the adaptation the paper names as the fix
// for the inter-application persistence limitation.
func WithRelocatable() ManagerOption {
	return func(m *Manager) { m.relocatable = true }
}

// WithFS runs the manager over an explicit filesystem — the seam the
// fault-injection layer (internal/fsx) plugs into. Defaults to fsx.OS.
func WithFS(fsys fsx.FS) ManagerOption {
	return func(m *Manager) {
		if fsys != nil {
			m.fs = fsys
		}
	}
}

// WithLockTimeout bounds how long this manager waits for the database lock
// before treating the holder as crashed and stealing it. Recovery tooling
// that runs when no healthy writer can exist (pcc-cachectl repair, the
// chaos harness) shortens this so a crash victim's stale lock does not
// stall the repair.
func WithLockTimeout(d time.Duration) ManagerOption {
	return func(m *Manager) {
		if d > 0 {
			m.lockWait = d
		}
	}
}

// NewManager opens (creating if needed) a cache database at dir.
func NewManager(dir string, opts ...ManagerOption) (*Manager, error) {
	m := &Manager{dir: dir, fs: fsx.OS, lockWait: lockTimeout}
	for _, o := range opts {
		o(m)
	}
	if err := m.fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if m.metrics == nil {
		m.metrics = metrics.NewRegistry()
	}
	m.m = newCoreMetrics(m.metrics)
	return m, nil
}

// Dir returns the database directory.
func (m *Manager) Dir() string { return m.dir }

// FS returns the filesystem the database runs over.
func (m *Manager) FS() fsx.FS { return m.fs }

// PrimeReport summarizes one reuse attempt.
type PrimeReport struct {
	Found       bool // a cache with matching VM and tool keys was found
	CacheTraces int  // traces in the cache file
	Installed   int  // traces installed into the code cache
	Rebased     int  // installed after relocatable rebasing

	// Invalidation reasons (counts of traces *not* installed).
	InvalidMissing int // trace's own or referenced mapping absent this run
	InvalidContent int // backing binary changed (digest/size/mtime)
	InvalidBase    int // mapping at a different base (non-relocatable)
}

// Invalidated returns the total number of traces rejected.
func (r *PrimeReport) Invalidated() int {
	return r.InvalidMissing + r.InvalidContent + r.InvalidBase
}

// CommitReport summarizes one cache generation/accumulation.
type CommitReport struct {
	Traces     int    // traces written
	NewTraces  int    // traces not present in the prior cache file
	Dropped    int    // prior traces dropped (stale mappings), re-discovered or not
	CodePool   uint64 // modeled code pool bytes
	DataPool   uint64 // modeled data-structure pool bytes
	Ticks      uint64 // persistence cost charged for the save
	File       string
	Accumulate bool // a prior cache existed and was merged
	Skipped    bool // the prior cache already covers this run; nothing written
}

// ErrNoCache is returned by Prime when no usable cache exists; execution
// simply proceeds with an empty code cache.
var ErrNoCache = errors.New("core: no persistent cache for this key set")

// cachePath returns the database file a commit for a key set writes: its
// manifest.
func (m *Manager) cachePath(ks KeySet) string {
	return filepath.Join(m.dir, ks.ManifestFileName())
}

// Lookup loads the cache for the exact key set, if present and valid. A
// file that fails verification is quarantined and reported as a miss: the
// run re-translates instead of failing — corrupt state degrades to cold-run
// behaviour, never to a broken run.
func (m *Manager) Lookup(ks KeySet) (*CacheFile, error) {
	return m.lookupAt(m.cachePath(ks), "exact")
}

// lookupAt reads the entry at path for a lookup of the given mode (exact
// or interapp), mapping a missing or quarantined file to ErrNoCache.
func (m *Manager) lookupAt(path, mode string) (*CacheFile, error) {
	cf, err := m.readVerified(path)
	if err != nil {
		return nil, m.lookupFailed(mode, err)
	}
	m.lookupHit(mode, cf.EncodedBytes)
	return cf, nil
}

// lookupHit counts a lookup of the given mode that found an entry of size
// bytes.
func (m *Manager) lookupHit(mode string, size uint64) {
	m.m.lookups.With(mode, "hit").Inc()
	m.m.fileBytes.With("read").Add(size)
}

// lookupFailed counts a lookup of the given mode that failed with err and
// says what it comes to: ErrNoCache for an entry that is missing or was
// quarantined on the way, err itself for anything else.
func (m *Manager) lookupFailed(mode string, err error) error {
	switch {
	case errors.Is(err, fs.ErrNotExist):
		m.m.lookups.With(mode, "miss").Inc()
		return ErrNoCache
	case errors.Is(err, errQuarantined):
		m.m.lookups.With(mode, "quarantined").Inc()
		return ErrNoCache
	default:
		m.m.lookups.With(mode, "error").Inc()
		return err
	}
}

// LookupInterApp finds a cache created by a *different* application with
// identical VM and tool keys ("the application key used in the persistent
// cache lookup function is ignored, thereby allowing the function to return
// a cache corresponding to any application instrumented identically").
// Among candidates it picks the one with the most traces, deterministically.
func (m *Manager) LookupInterApp(ks KeySet) (*CacheFile, error) {
	path, err := m.interAppPath(ks)
	if err != nil {
		return nil, err
	}
	return m.lookupAt(path, "interapp")
}

// interAppPath is the entry LookupInterApp picks for ks, or ErrNoCache.
func (m *Manager) interAppPath(ks KeySet) (string, error) {
	cands, err := m.Candidates(ks, true)
	if err != nil {
		return "", err
	}
	if len(cands) > 0 && cands[0].File == ks.ManifestFileName() {
		cands = cands[1:] // the exact entry: the application's own
	}
	if len(cands) == 0 {
		m.m.lookups.With("interapp", "miss").Inc()
		return "", ErrNoCache
	}
	// A candidate that is gone, or quarantined on the way (which takes it
	// out of the listing), degrades to a miss: the run translates.
	return filepath.Join(m.dir, cands[0].File), nil
}

// InterAppCandidates is the one inter-application ranking rule, which
// Candidates applies for the local lookup and a daemon's alike: the indexes
// of the entries a lookup for ks may use (same VM and tool keys, another
// application), best first — most traces, then file name.
func InterAppCandidates(ks KeySet, entries []IndexEntry) []int {
	if len(entries) == 0 {
		return nil
	}
	app, vmKey, tool := ks.App.Hex(), ks.VM.Hex(), ks.Tool.Hex()
	var out []int
	for i, e := range entries {
		if e.VM == vmKey && e.Tool == tool && e.App != app {
			out = append(out, i)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := &entries[out[i]], &entries[out[j]]
		if a.Traces != b.Traces {
			return a.Traces > b.Traces
		}
		return a.File < b.File
	})
	return out
}

// Prime looks up the cache for the VM's own key set and installs every
// valid translation. Returns (report, ErrNoCache) when nothing is found.
func (m *Manager) Prime(v *vm.VM) (*PrimeReport, error) {
	return m.primeAt(v, m.cachePath(KeysFor(v)), "exact")
}

// PrimeInterApp primes from another application's cache.
func (m *Manager) PrimeInterApp(v *vm.VM) (*PrimeReport, error) {
	path, err := m.interAppPath(KeysFor(v))
	if err != nil {
		return &PrimeReport{}, err
	}
	return m.primeAt(v, path, "interapp")
}

// primeAt primes v from the manifest at path for a lookup of the given
// mode. The manifest is judged before any blob is read (planPrime), so only
// the traces that install are read and verified — what a launch does not
// read it does not judge. What the entry is read into belongs to this call
// alone, so its traces are installed themselves, not copies of them.
func (m *Manager) primeAt(v *vm.VM, path, mode string) (*PrimeReport, error) {
	man, err := m.decodeManifestAt(path)
	if err != nil {
		return &PrimeReport{}, m.lookupFailed(mode, err)
	}
	rep, states, keep, err := m.planPrime(v, man)
	if err != nil {
		m.lookupHit(mode, man.EncodedBytes)
		return rep, err
	}
	cf, err := m.readVerifiedTraces(path, man, keep)
	if err != nil {
		return &PrimeReport{}, m.lookupFailed(mode, err)
	}
	m.lookupHit(mode, man.EncodedBytes)
	m.installTraces(v, cf.Traces, states, true, rep)
	return rep, nil
}

// modState classifies a cached module against the current run.
type modState struct {
	status  uint8 // one of the mod* constants
	current int   // index into the current module table when usable
	newBase uint32
}

// The states run from best to worst: a trace takes the worst state of the
// modules it refers to, and is usable while that is modRebase or better.
const (
	modOK       = iota // same binary at the same base: translations valid
	modRebase          // same binary, different base: usable via rebasing
	modMissing         // mapping absent in this run
	modContent         // backing binary changed
	modBaseOnly        // base moved and rebasing is disabled
)

// PrimeFrom validates cf against the running VM and installs every usable
// trace (see admit). cf is left untouched — the VM gets copies — so one
// file can prime any number of VMs.
func (m *Manager) PrimeFrom(v *vm.VM, cf *CacheFile) (*PrimeReport, error) {
	rep := &PrimeReport{Found: true, CacheTraces: len(cf.Traces)}
	states, err := m.admit(v, cf.VMKey, cf.ToolKey, cf.Modules)
	if err != nil {
		return rep, err
	}
	m.installTraces(v, cf.Traces, states, false, rep)
	return rep, nil
}

// admit checks a cache's VM and tool keys, the hard requirements, against
// v's, and classifies the cache's module table against v's mappings — all a
// prime decides before it looks at a trace. Mapping keys are checked per
// module, so traces are invalidated individually, exactly as described in
// §3.2.3 of the paper.
func (m *Manager) admit(v *vm.VM, vmKey, toolKey Key, modules []ModuleRecord) ([]modState, error) {
	ks := KeysFor(v)
	if vmKey != ks.VM {
		m.m.keyMismatches.With("vm").Inc()
		return nil, fmt.Errorf("core: cache written by a different VM version (key %s != %s)", vmKey, ks.VM)
	}
	if toolKey != ks.Tool {
		m.m.keyMismatches.With("tool").Inc()
		return nil, fmt.Errorf("core: cache instrumented differently (tool key %s != %s)", toolKey, ks.Tool)
	}
	records, byPath := currentModules(v)
	return classify(modules, records, byPath, m.relocatable), nil
}

// classify judges each of a cache's modules against a module table
// (records, indexed by path in byPath): the same binary at the same base,
// at another base (usable when relocatable), changed, or absent.
func classify(modules, records []ModuleRecord, byPath map[string]int, relocatable bool) []modState {
	states := make([]modState, len(modules))
	for i, rec := range modules {
		cur, ok := byPath[rec.Path]
		switch {
		case !ok:
			states[i] = modState{status: modMissing}
		case records[cur].Key == rec.Key:
			states[i] = modState{status: modOK, current: cur, newBase: records[cur].Base}
		case records[cur].Content == rec.Content && relocatable:
			states[i] = modState{status: modRebase, current: cur, newBase: records[cur].Base}
		case records[cur].Content == rec.Content:
			states[i] = modState{status: modBaseOnly}
		default:
			states[i] = modState{status: modContent}
		}
	}
	return states
}

// worstOf is the worst state among a trace's own module and the modules its
// relocation notes target: the trace is usable only if all of them are.
func worstOf(states []modState, t *vm.Trace) uint8 {
	worst := states[t.Module].status
	for _, n := range t.Notes {
		worst = max(worst, states[n.Target].status)
	}
	return worst
}

// worstRef is worstOf for a manifest's trace ref, whose Refs name the same
// modules, read off the manifest instead of the trace.
func worstRef(states []modState, refs []int32) uint8 {
	var worst uint8
	for _, mi := range refs {
		worst = max(worst, states[mi].status)
	}
	return worst
}

// installTraces charges the load of a cache over len(states) modules and
// installs every trace states keeps, adding to rep its installs and the
// reason for each trace it does not install. With owned set the caller
// gives up traces: they are remapped (and rebased) in place and handed to
// the VM; without it each usable trace is cloned first.
func (m *Manager) installTraces(v *vm.VM, traces []*vm.Trace, states []modState, owned bool, rep *PrimeReport) {
	// Charge the fixed load cost plus one key verification per cached
	// mapping.
	cost := v.Cost()
	v.ChargePersist(cost.PersistLoadFixed + cost.PersistKeyCheck*uint64(len(states)))

	v.Cache().Reserve(traces)
	for _, t := range traces {
		switch worst := worstOf(states, t); worst {
		case modOK, modRebase:
			if !owned {
				t = cloneTrace(t)
			}
			remapTrace(t, states, worst == modRebase)
			v.InstallPersisted(t)
			rep.Installed++
			if worst == modRebase {
				rep.Rebased++
			}
		case modMissing:
			rep.InvalidMissing++
		case modContent:
			rep.InvalidContent++
		case modBaseOnly:
			rep.InvalidBase++
		}
	}
	m.m.installs.With("exact").Add(uint64(rep.Installed - rep.Rebased))
	m.m.installs.With("rebased").Add(uint64(rep.Rebased))
	m.m.invalidations.With("missing").Add(uint64(rep.InvalidMissing))
	m.m.invalidations.With("content").Add(uint64(rep.InvalidContent))
	m.m.invalidations.With("base").Add(uint64(rep.InvalidBase))
	v.EventLog().Record(tracelog.Event{
		Kind: tracelog.KindPrime, Tick: v.Clock(), Traces: rep.Installed,
		Detail: fmt.Sprintf("cache=%d invalid=%d rebased=%d", rep.CacheTraces, rep.Invalidated(), rep.Rebased),
	})
}

// cloneTrace copies a cached trace's persistent state, and the address it
// was read under, into a trace of its own. What a trace derives from that state — exits, liveness — is left for
// remapTrace, which knows whether the copy is about to move.
func cloneTrace(t *vm.Trace) *vm.Trace {
	nt := &vm.Trace{
		Start:    t.Start,
		Module:   t.Module,
		ModOff:   t.ModOff,
		Insts:    append([]isa.Inst(nil), t.Insts...),
		Ops:      append([]vm.AnalysisOp(nil), t.Ops...),
		Notes:    append([]vm.RelocNote(nil), t.Notes...),
		OptLevel: t.OptLevel,
		OrigLen:  t.OrigLen,
		Addr:     t.Addr,
	}
	if t.SrcIdx != nil {
		nt.SrcIdx = append([]uint16(nil), t.SrcIdx...)
	}
	return nt
}

// remapTrace moves t, in place, from the module table of the file it was
// read from (which states describes) onto the current one and, when rebase
// is set, to the current bases: start address and loader-patched immediates
// are rewritten, and the trace, which no longer encodes to the blob it was
// read from, loses that address. Exits are derived again only if that changed an address
// they depend on (or t has none yet, being a fresh clone): a trace decoded
// a moment ago and installed where it was translated keeps the ones it has.
//
//pcc:hotpath
func remapTrace(t *vm.Trace, states []modState, rebase bool) {
	own := &states[t.Module]
	stale := len(t.Exits) == 0
	if rebase {
		t.Addr = nil
		newStart := own.newBase + t.ModOff
		stale = stale || newStart != t.Start
		for _, n := range t.Notes {
			tgtAbs := states[n.Target].newBase + n.TargetOff
			in := &t.Insts[n.InstIdx]
			imm := in.Imm
			switch n.Type {
			case obj.RelPC32:
				// pc-relative displacements evaluate against the guest
				// address the instruction was fetched from, which for an
				// optimized trace maps through the source index.
				pc := newStart + t.SrcOff(int(n.InstIdx))
				imm = int32(tgtAbs - pc)
			case obj.RelAbs32:
				imm = int32(tgtAbs)
			}
			stale = stale || imm != in.Imm
			in.Imm = imm
		}
		t.Start = newStart
	}
	t.Module = int32(own.current)
	for i := range t.Notes {
		t.Notes[i].Target = int32(states[t.Notes[i].Target].current)
	}
	if stale {
		t.RecomputeStatic()
	}
}

// currentModules snapshots the running process's file-backed mappings in
// module order.
func currentModules(v *vm.VM) ([]ModuleRecord, map[string]int) {
	proc := v.Process()
	mappings := proc.AS.Mappings()
	byBase := make(map[uint32]mem.Mapping, len(mappings))
	for _, mp := range mappings {
		byBase[mp.Base] = mp
	}
	records := make([]ModuleRecord, len(proc.Modules))
	byPath := make(map[string]int, len(proc.Modules))
	for i, mod := range proc.Modules {
		records[i] = moduleRecordFor(byBase[mod.Base])
		byPath[records[i].Path] = i
	}
	return records, byPath
}

// traceKey identifies a trace by its module's index in the run's module
// table and its offset in that module.
func traceKey(module int, off uint32) uint64 { return uint64(module)<<32 | uint64(off) }

// Delta is what one run has to commit: its keys, application path and
// module table, and its file-backed traces, each once (by module and
// offset). Every commit takes one — local, fleet write-through, a daemon's
// commit of a publication — and skips by one rule, AddsNothing.
type Delta struct {
	Keys    KeySet
	AppPath string
	Modules []ModuleRecord
	Reused  []*vm.Trace // installed from a blob and unchanged: written by Addr
	Encode  []*vm.Trace // translated, or rebased (which clears Addr): encoded
	Fresh   int         // traces the run translated itself (!Persisted)

	seen map[uint64]bool // every trace's traceKey
}

// NewDelta is the delta of v's run, taken without touching the database.
func NewDelta(v *vm.VM) *Delta {
	records, _ := currentModules(v)
	return newDelta(KeysFor(v), records[0].Path, records, v.Cache().Traces())
}

// deltaOf is the delta of a whole cache file, each trace classified by its
// own Persisted and Addr. Its traces must refer inside its module table.
func deltaOf(cf *CacheFile) *Delta {
	return newDelta(KeySet{App: cf.AppKey, VM: cf.VMKey, Tool: cf.ToolKey}, cf.AppPath, cf.Modules, cf.Traces)
}

// newDelta dedupes traces in one pass, filling one buffer with the reused
// ones from the front and the ones to encode from the back.
func newDelta(ks KeySet, appPath string, modules []ModuleRecord, traces []*vm.Trace) *Delta {
	d := &Delta{Keys: ks, AppPath: appPath, Modules: modules, seen: make(map[uint64]bool, len(traces))}
	buf := make([]*vm.Trace, len(traces))
	reused, encode := 0, len(buf)
	for _, t := range traces {
		if t.Module < 0 {
			continue // dynamically generated code: never persisted
		}
		k := traceKey(int(t.Module), t.ModOff)
		if d.seen[k] {
			continue
		}
		d.seen[k] = true
		if t.Addr != nil {
			buf[reused] = t
			reused++
		} else {
			encode--
			buf[encode] = t
		}
		if !t.Persisted {
			d.Fresh++
		}
	}
	d.Reused, d.Encode = buf[:reused:reused], buf[encode:]
	return d
}

// Len is how many distinct traces the run holds.
func (d *Delta) Len() int { return len(d.Reused) + len(d.Encode) }

// AddsNothing reports whether the run has nothing to add to a prior entry
// of priorTraces traces over priorModules: it translated none of its
// traces, its module table is the prior's, and it holds no more traces than
// the prior does. It is the one rule every commit skips by.
func (d *Delta) AddsNothing(priorTraces int, priorModules []ModuleRecord) bool {
	return d.Fresh == 0 && d.Len() <= priorTraces &&
		slices.EqualFunc(d.Modules, priorModules, func(a, b ModuleRecord) bool { return a.Key == b.Key })
}

// file is the run as a cache file whose traces are in no particular order
// and whose pools are not summed.
func (d *Delta) file() *CacheFile {
	traces := make([]*vm.Trace, 0, d.Len())
	return &CacheFile{
		AppKey: d.Keys.App, VMKey: d.Keys.VM, ToolKey: d.Keys.Tool,
		AppPath: d.AppPath,
		Modules: d.Modules,
		Traces:  append(append(traces, d.Reused...), d.Encode...),
	}
}

// CacheFile is the run as a whole cache file, what a publication is built from.
func (d *Delta) CacheFile() *CacheFile {
	cf := d.file()
	sortTraces(cf)
	cf.recomputePools()
	return cf
}

// BuildCacheFile snapshots the VM's file-backed translations into a
// CacheFile for its key set without touching the database: NewDelta's run
// as a whole image, for callers that want the image itself. No commit does.
func BuildCacheFile(v *vm.VM) (*CacheFile, KeySet) {
	d := NewDelta(v)
	return d.CacheFile(), d.Keys
}

// Commit writes (or accumulates into) the persistent cache for the VM's key
// set: "information is written to a persistent code cache whenever the
// intra-execution code cache becomes full or the last thread of execution
// performs the exit system call", and "the code coverage of a persistent
// cache can be increased by repeatedly using it across executions of
// different inputs, and adding newly discovered translations into it".
func (m *Manager) Commit(v *vm.VM) (*CommitReport, error) {
	rep, err := m.CommitFile(NewDelta(v))
	if err != nil {
		return nil, err
	}
	rep.Charge(v, tracelog.KindCommit, rep.File)
	return rep, nil
}

// Charge prices rep, the commit of v's run, in v's cost model — a commit
// that skipped wrote nothing and costs nothing — and records it in v's
// event log as kind, naming where it went: the entry's file, or the daemon.
func (rep *CommitReport) Charge(v *vm.VM, kind, where string) {
	if !rep.Skipped {
		cost := v.Cost()
		rep.Ticks = cost.PersistSaveFixed + cost.PersistSaveTrace*uint64(rep.Traces)
	}
	v.EventLog().Record(tracelog.Event{
		Kind: kind, Tick: v.Clock(), Traces: rep.Traces,
		Detail: fmt.Sprintf("%s new=%d dropped=%d skipped=%t", where, rep.NewTraces, rep.Dropped, rep.Skipped),
	})
}

// MergeCacheFiles merges incoming (whose module table is authoritative for
// the new layout) with prior — nil when no cache existed — into a fresh
// CacheFile, exactly as accumulation does at commit time: incoming traces
// win, prior traces the incoming run did not rediscover are kept when their
// mappings still validate against the incoming layout and dropped
// otherwise. Pure in-memory merge: no locking, no disk. rep.File is left
// empty for the caller; when rep.Skipped (Delta.AddsNothing) the returned
// file is prior itself. Migration merges a legacy image into a newer
// manifest with it; no commit does.
func MergeCacheFiles(incoming, prior *CacheFile, relocatable bool) (*CacheFile, *CommitReport, error) {
	if err := incoming.checkTraceModules(); err != nil {
		return nil, nil, err
	}
	d := deltaOf(incoming)
	if prior != nil && d.AddsNothing(len(prior.Traces), prior.Modules) {
		return prior, &CommitReport{
			Skipped: true, Accumulate: true,
			Traces: len(prior.Traces), CodePool: prior.CodePool, DataPool: prior.DataPool,
		}, nil
	}
	g := newMerge(d, relocatable)
	if prior != nil {
		g.rep.Accumulate = true
		states := g.classify(prior.Modules)
		for _, t := range prior.Traces {
			g.add(t, states, false)
		}
	}
	cf, rep := g.finish()
	return cf, rep, nil
}

// merge is one accumulation in progress: the run's traces, which are
// authoritative for the new layout, then the prior traces it did not
// re-discover, as long as their mappings still validate against that
// layout.
type merge struct {
	d           *Delta
	cf          *CacheFile
	rep         *CommitReport
	added       map[uint64]bool // the prior traces taken so far
	relocatable bool
}

func newMerge(d *Delta, relocatable bool) *merge {
	return &merge{d: d, cf: d.file(), rep: &CommitReport{NewTraces: d.Fresh}, relocatable: relocatable}
}

// classify judges a prior cache's module table against the run's, once per
// merge.
func (g *merge) classify(priorModules []ModuleRecord) []modState {
	byPath := make(map[string]int, len(g.cf.Modules))
	for i := range g.cf.Modules {
		byPath[g.cf.Modules[i].Path] = i
	}
	return classify(priorModules, g.cf.Modules, byPath, g.relocatable)
}

// add accumulates one trace of a prior cache whose module table states
// classifies: a trace whose mappings went stale is dropped, one the
// run re-discovered is left out, and any other is moved onto the run's
// table. With owned set, t is the merge's to remap in place.
func (g *merge) add(t *vm.Trace, states []modState, owned bool) {
	worst := worstOf(states, t)
	if worst > modRebase {
		g.rep.Dropped++
		return
	}
	k := traceKey(states[t.Module].current, t.ModOff)
	if g.d.seen[k] || g.added[k] {
		return
	}
	if g.added == nil {
		g.added = make(map[uint64]bool)
	}
	g.added[k] = true
	if !owned {
		t = cloneTrace(t)
	}
	remapTrace(t, states, worst == modRebase)
	g.cf.Traces = append(g.cf.Traces, t)
}

// finish orders the merged traces and completes the report.
func (g *merge) finish() (*CacheFile, *CommitReport) {
	sortTraces(g.cf)
	g.cf.recomputePools()
	g.rep.Traces = len(g.cf.Traces)
	g.rep.CodePool = g.cf.CodePool
	g.rep.DataPool = g.cf.DataPool
	return g.cf, g.rep
}

// withoutPrior finishes the merge with no prior cache when err says there
// is none (ErrNoCache), and fails it with any other error.
func (g *merge) withoutPrior(err error) (*CacheFile, *CommitReport, error) {
	if !errors.Is(err, ErrNoCache) {
		return nil, nil, err
	}
	cf, rep := g.finish()
	return cf, rep, nil
}

// CommitFile merges a run's delta into the database entry for its key set
// and atomically rewrites it. A run that adds nothing to the entry as it
// stands is judged on one read of the entry's manifest, before and without
// any lock: a skip writes nothing, so it is ordered before whatever a peer
// commits after that read. Any other commit is a read-merge-write under
// the in-process mutex plus the cross-process advisory lock, which reads
// the manifest again: two writers accumulating concurrently would otherwise
// each merge against the same prior file and the second rename would
// silently drop the first one's new traces.
func (m *Manager) CommitFile(d *Delta) (*CommitReport, error) {
	path := m.cachePath(d.Keys)
	if d.Fresh == 0 { // a run that translated something always adds
		if man, err := m.priorManifest(path); err == nil && d.AddsNothing(len(man.Traces), RecordModules(man.Modules)) {
			return m.skipped(man, path), nil
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	unlock, err := m.lockDB()
	if err != nil {
		return nil, err
	}
	defer unlock()

	merged, rep, err := m.mergeManifest(d, path)
	if err != nil || rep.Skipped {
		return rep, err
	}
	rep.File = filepath.Base(path)
	m.m.mergeDropped.Add(uint64(rep.Dropped))
	written, _, err := m.writeStoreFormat(merged, path)
	if err != nil {
		return nil, err
	}
	m.m.fileBytes.With("written").Add(written)
	m.m.commits.With("written").Inc()
	return rep, nil
}

// skipped counts and reports a commit that leaves the entry at path, whose
// manifest is man, as it is.
func (m *Manager) skipped(man *store.Manifest, path string) *CommitReport {
	m.lookupHit("exact", man.EncodedBytes)
	m.m.commits.With("skipped").Inc()
	return &CommitReport{
		Skipped: true, Accumulate: true, File: filepath.Base(path),
		Traces: len(man.Traces), CodePool: man.CodePool, DataPool: man.DataPool,
	}
}

func sortTraces(cf *CacheFile) {
	sort.Slice(cf.Traces, func(i, j int) bool {
		a, b := cf.Traces[i], cf.Traces[j]
		if a.Module != b.Module {
			return a.Module < b.Module
		}
		return a.ModOff < b.ModOff
	})
}

// SnapshotTo copies the database — cache files and the in-tree
// blob store — into dstDir through the manager's filesystem seam: the
// "freeze the cache state" half of a self-packaged failure artifact, whose
// replay must see exactly the warmth the failing run saw. The advisory
// lock file is skipped (the snapshot is a fresh, unlocked database); a
// store shared via WithStoreDir lives outside the database directory and
// is not included.
func (m *Manager) SnapshotTo(dstDir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.snapshotTree(m.dir, dstDir)
}

func (m *Manager) snapshotTree(src, dst string) error {
	if err := m.fs.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := m.fs.Glob(filepath.Join(src, "*"))
	if err != nil {
		return err
	}
	sort.Strings(entries)
	for _, e := range entries {
		info, err := m.fs.Stat(e)
		if err != nil {
			continue // pruned concurrently
		}
		name := filepath.Base(e)
		if info.IsDir() {
			if err := m.snapshotTree(e, filepath.Join(dst, name)); err != nil {
				return err
			}
			continue
		}
		if name == ".lock" {
			continue
		}
		data, err := m.fs.ReadFile(e)
		if err != nil {
			return err
		}
		if err := m.fs.WriteFile(filepath.Join(dst, name), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// KeyClassCount groups database entries by their (VM, tool) key pair — the
// "instrumented identically" equivalence class that inter-application
// lookup searches within.
type KeyClassCount struct {
	VM      string `json:"vm"`
	Tool    string `json:"tool"`
	Entries int    `json:"entries"`
	Traces  int    `json:"traces"`
}

// DBStats aggregates one database for inspection. `pcc-cachectl stats` and
// the cache server's STATS op return the same shape, so local and served
// databases can be compared directly.
type DBStats struct {
	Files    int             `json:"files"`
	Traces   int             `json:"traces"`
	CodePool uint64          `json:"code_pool"`
	DataPool uint64          `json:"data_pool"`
	Classes  []KeyClassCount `json:"classes"`

	// Store is the content-addressed side: blob/manifest counts and the
	// deduplication ratio. Nil when it could not be read, or when a daemon's
	// STATS answer carried none.
	Store *StoreDBStats `json:"store,omitempty"`
}

// Stats aggregates the database entries into per-database totals, mirroring
// them into the registry's db gauges.
func (m *Manager) Stats() (*DBStats, error) {
	entries, err := m.Entries()
	if err != nil {
		return nil, err
	}
	st := aggregateStats(entries)
	if ss, err := m.StoreStats(); err == nil {
		st.Store = ss
	}
	m.m.dbFiles.Set(float64(st.Files))
	m.m.dbTraces.Set(float64(st.Traces))
	m.m.dbCodePool.Set(float64(st.CodePool))
	m.m.dbDataPool.Set(float64(st.DataPool))
	return st, nil
}

// aggregateStats folds database entries into per-database totals.
func aggregateStats(entries []IndexEntry) *DBStats {
	st := &DBStats{}
	byClass := make(map[[2]string]*KeyClassCount)
	for _, e := range entries {
		st.Files++
		st.Traces += e.Traces
		st.CodePool += e.CodePool
		st.DataPool += e.DataPool
		ck := [2]string{e.VM, e.Tool}
		c := byClass[ck]
		if c == nil {
			c = &KeyClassCount{VM: e.VM, Tool: e.Tool}
			byClass[ck] = c
		}
		c.Entries++
		c.Traces += e.Traces
	}
	for _, c := range byClass {
		st.Classes = append(st.Classes, *c)
	}
	sort.Slice(st.Classes, func(i, j int) bool {
		a, b := st.Classes[i], st.Classes[j]
		if a.VM != b.VM {
			return a.VM < b.VM
		}
		return a.Tool < b.Tool
	})
	return st
}

// RemoveEntry deletes one cache entry — its manifest and any legacy image
// of it, matched by stem, so a later MigrateToStore cannot resurrect the
// entry — as directed by the fleet's global utility-based eviction. Blobs a
// removed manifest referenced stay in the store until the next CompactStore
// run reclaims the unreferenced ones.
func (m *Manager) RemoveEntry(file string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	unlock, err := m.lockDB()
	if err != nil {
		return err
	}
	defer unlock()

	stem := filepath.Join(m.dir, FileStem(file))
	for _, ext := range []string{".pcc", ".pcm"} {
		if err := m.fs.Remove(stem + ext); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return err
		}
	}
	return nil
}

// lockTimeout is the default for how long a writer waits for the database
// lock before treating the holder as crashed and stealing it; per-manager
// override via WithLockTimeout.
var lockTimeout = 5 * time.Second

// lockDB takes a best-effort advisory lock on the database directory.
func (m *Manager) lockDB() (func(), error) {
	lock := filepath.Join(m.dir, ".lock")
	deadline := time.Now().Add(m.lockWait)
	for {
		err := m.fs.CreateExcl(lock, 0o644)
		if err == nil {
			return func() { m.fs.Remove(lock) }, nil
		}
		if !errors.Is(err, fs.ErrExist) {
			return nil, err
		}
		if time.Now().After(deadline) {
			// A crashed writer left the lock behind; steal it.
			m.fs.Remove(lock)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
