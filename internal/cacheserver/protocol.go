// Package cacheserver shares one persistent code cache database between
// many concurrently running VM processes: a daemon (cmd/pcc-cached) serves
// the database from internal/core over a length-prefixed binary protocol on
// TCP or unix sockets, and the client library lets a run fetch translations
// published by other processes — the ShareJIT-shaped step past the paper's
// one-process-at-a-time on-disk sharing.
//
// The protocol is a strict request/response sequence per connection. Every
// frame is
//
//	[u32 length][u8 op/status][payload ...]
//
// with the length covering the op byte plus the payload, little-endian, and
// bounded by MaxFrame. Requests carry one of the Op* codes; responses carry
// a Status* code, with StatusError followed by a length-prefixed message.
// Payloads reuse internal/binenc. There is one read path: FETCHMANIFESTS
// moves an entry as its manifest, and FETCHPACKS moves the daemon's
// pack files, byte for byte, that hold the content-addressed blobs the
// client's machine is missing; the client verifies every pack whole before
// its store adopts it. PUBLISH moves a run up in the same format: its
// manifest plus a pack of the blobs it encoded. Manifests carry an integrity
// trailer, so every transfer is verified end to end.
package cacheserver

import (
	"errors"
	"fmt"
	"io"
	"math"

	"persistcc/internal/binenc"
	"persistcc/internal/core"
	"persistcc/internal/store"
)

// Op codes (client → server). Codes 2, 5, 7 and 9 belonged to retired ops
// (whole-image FETCH, PRUNE, bulk FETCH, and FETCHBLOBS, which moved blobs
// one by one); the daemon answers them, like any unassigned code, with
// StatusError.
const (
	OpLookup  = 1 // key set + scope → cache metadata, no payload transfer
	OpPublish = 3 // manifest + packs of the new blobs → server-side commit, CommitReport
	OpStats   = 4 // → per-database totals (core.DBStats)
	OpMetrics = 6 // → the daemon's metrics registry snapshot (JSON)

	// The read path: FETCHMANIFESTS moves the (small) per-app manifests,
	// FETCHPACKS moves the packs holding the shared blobs the client's
	// local store is missing — so each deduplicated blob crosses the wire
	// about once per machine, not once per application, in the store's own
	// compressed unit.
	OpFetchManifests = 8  // key set + scope → per-entry manifest
	OpFetchPacks     = 13 // entry key set + missing blob hashes → the pack files holding them

	// Fleet-management ops: a fleet coordinator (pcc-cachectl or the fleet
	// client library) gathers per-shard UTILITY summaries, ranks entries
	// globally by hit frequency × translation cost (ShareJIT's global cache
	// management), and EVICTs the losers on every shard that holds them.
	// COMPACT then reclaims the blobs no surviving manifest references.
	OpUtility = 10 // → per-entry usage summaries (stem, hits, traces, code pool)
	OpEvict   = 11 // entry stems → remove from the database
	OpCompact = 12 // → reclaim unreferenced store blobs (store.CompactReport)
)

// maxBulkFiles bounds how many entries one FETCHMANIFESTS response may
// carry (the exact match plus inter-application candidates); both ends
// enforce it.
const maxBulkFiles = 64

// Status codes (server → client).
const (
	StatusOK       = 0
	StatusNotFound = 1 // no cache for the key set (maps to core.ErrNoCache)
	StatusError    = 2 // payload is a length-prefixed error string
)

// MaxFrame is the default bound on one frame (a serialized cache database
// entry fits well within this; anything larger is a corrupt or hostile
// length field). Both ends enforce it — the server with WithMaxFrame, the
// client with WithClientMaxFrame — so a bad peer can never make either side
// allocate an absurd buffer.
const MaxFrame = 256 << 20

const maxErrLen = 4096

// errFrameTooLarge marks a declared frame length beyond the enforced bound;
// the connection carrying it is unrecoverable (the stream position would be
// lost skipping the body), so the handler severs it after reporting.
var errFrameTooLarge = errors.New("cacheserver: frame exceeds size limit")

// writeFrame sends one [length][tag][payload] frame.
func writeFrame(w io.Writer, tag uint8, payload []byte, max int) error {
	if len(payload)+1 > max {
		return fmt.Errorf("%w: %d bytes", errFrameTooLarge, len(payload)+1)
	}
	hdr := &binenc.Writer{}
	hdr.U32(uint32(len(payload) + 1))
	hdr.U8(tag)
	if _, err := w.Write(hdr.Buf); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one frame, returning its tag byte and payload. The length
// field is validated against max before any payload allocation.
func readFrame(r io.Reader, max int) (uint8, []byte, error) {
	tag, n, err := readFrameHeader(r, max)
	if err != nil {
		return 0, nil, err
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return tag, payload, nil
}

// readFrameHeader reads a frame's length and tag, returning the tag and the
// length of the payload that follows, validated against max.
func readFrameHeader(r io.Reader, max int) (uint8, int, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, err
	}
	n := uint32(hdr[0]) | uint32(hdr[1])<<8 | uint32(hdr[2])<<16 | uint32(hdr[3])<<24
	if n < 1 {
		return 0, 0, fmt.Errorf("cacheserver: bad frame length %d", n)
	}
	if int64(n) > int64(max) {
		return 0, 0, fmt.Errorf("%w: declared %d bytes", errFrameTooLarge, n)
	}
	return hdr[4], int(n - 1), nil
}

// Scope is a key request's mode byte: which of the entries a key set covers
// a FETCHMANIFESTS response carries. LOOKUP describes the first of them.
type Scope uint8

const (
	ScopeExact    Scope = 0 // the exact entry only
	ScopeInterApp Scope = 1 // the exact entry, then every same-class candidate, best first (a bulk prime)
	ScopeBest     Scope = 2 // ScopeInterApp's first entry alone (a non-bulk inter-application prime)
)

// scopeOf maps the boolean inter-application mode of Lookup and
// FetchManifests onto its scope.
func scopeOf(interApp bool) Scope {
	if interApp {
		return ScopeInterApp
	}
	return ScopeExact
}

// encodeKeyRequest builds the LOOKUP/FETCHMANIFESTS payload: the three keys
// plus the scope byte.
func encodeKeyRequest(ks core.KeySet, scope Scope) []byte {
	w := &binenc.Writer{}
	w.Raw(ks.App[:])
	w.Raw(ks.VM[:])
	w.Raw(ks.Tool[:])
	w.U8(uint8(scope))
	return w.Buf
}

func decodeKeyRequest(b []byte) (core.KeySet, Scope, error) {
	r := &binenc.Reader{Buf: b}
	var ks core.KeySet
	copy(ks.App[:], r.Raw(32))
	copy(ks.VM[:], r.Raw(32))
	copy(ks.Tool[:], r.Raw(32))
	scope := Scope(r.U8())
	if r.Err == nil && scope > ScopeBest {
		return ks, 0, fmt.Errorf("cacheserver: unknown key request scope %d", scope)
	}
	return ks, scope, r.Done()
}

// ItemKindManifest is the one manifest-item kind in FETCHMANIFESTS
// responses: an entry travels as its raw manifest. An item of any other
// kind fails to decode.
const ItemKindManifest = 1

// ManifestItem is one database entry in a FETCHMANIFESTS response.
// Exported so alternative transports (the fleet routing client) can relay
// FETCHMANIFESTS responses without re-encoding.
type ManifestItem struct {
	Kind uint8
	Data []byte
}

func encodeManifestItems(items []ManifestItem) []byte {
	w := &binenc.Writer{}
	w.U32(uint32(len(items)))
	for _, it := range items {
		w.U8(it.Kind)
		w.U32(uint32(len(it.Data)))
		w.Raw(it.Data)
	}
	return w.Buf
}

func decodeManifestItems(b []byte) ([]ManifestItem, error) {
	r := &binenc.Reader{Buf: b}
	n := r.Count(maxBulkFiles)
	items := make([]ManifestItem, 0, n)
	for i := 0; i < n && r.Err == nil; i++ {
		kind := r.U8()
		if r.Err == nil && kind != ItemKindManifest {
			return nil, fmt.Errorf("cacheserver: unknown manifest item kind %d", kind)
		}
		ln := int(r.U32())
		if r.Err == nil && (ln < 0 || ln > MaxFrame) {
			return nil, fmt.Errorf("cacheserver: manifest item length %d out of range", ln)
		}
		raw := r.Raw(ln)
		if r.Err != nil {
			break
		}
		items = append(items, ManifestItem{Kind: kind, Data: raw}) // aliases b, which the caller owns
	}
	return items, r.Done()
}

// encodePackRequest builds the FETCHPACKS payload: the key set of the entry
// whose blobs are wanted (a fleet routes by it), then the hashes.
func encodePackRequest(ks core.KeySet, hashes []store.Hash) []byte {
	w := &binenc.Writer{Buf: make([]byte, 0, 100+32*len(hashes))}
	w.Raw(ks.App[:])
	w.Raw(ks.VM[:])
	w.Raw(ks.Tool[:])
	w.U32(uint32(len(hashes)))
	for _, h := range hashes {
		w.Raw(h[:])
	}
	return w.Buf
}

func decodePackRequest(b []byte) (core.KeySet, []store.Hash, error) {
	r := &binenc.Reader{Buf: b}
	var ks core.KeySet
	copy(ks.App[:], r.Raw(32))
	copy(ks.VM[:], r.Raw(32))
	copy(ks.Tool[:], r.Raw(32))
	n := r.Count((len(b) - r.Off - 4) / 32) // no more hashes than bytes to back them
	hashes := make([]store.Hash, n)
	for i := range hashes {
		copy(hashes[i][:], r.Raw(32))
	}
	return ks, hashes, r.Done()
}

// encodePackFiles builds the FETCHPACKS response: whole pack files, each
// length-prefixed.
func encodePackFiles(packs [][]byte) []byte {
	size := 4
	for _, p := range packs {
		size += 4 + len(p)
	}
	w := &binenc.Writer{Buf: make([]byte, 0, size)}
	w.U32(uint32(len(packs)))
	for _, p := range packs {
		w.U32(uint32(len(p)))
		w.Raw(p)
	}
	return w.Buf
}

// decodePackFiles splits a FETCHPACKS response into its pack files, which
// alias b. Their contents are not checked here: store.AdoptPacks verifies
// every pack whole before anything is written.
func decodePackFiles(b []byte) ([][]byte, error) {
	r := &binenc.Reader{Buf: b}
	n := r.Count((len(b) - 4) / 4) // every pack costs at least its length field
	packs := make([][]byte, 0, n)
	for i := 0; i < n && r.Err == nil; i++ {
		p := r.Raw(int(r.U32()))
		if r.Err != nil {
			break
		}
		packs = append(packs, p)
	}
	return packs, r.Done()
}

// encodePublication builds the PUBLISH payload: the count of traces the run
// translated, its manifest, then the pack files holding the blobs of the
// traces it encoded, framed as a FETCHPACKS response frames them.
func encodePublication(pub *core.Publication) []byte {
	w := &binenc.Writer{}
	w.U32(uint32(pub.Fresh))
	w.Bytes(pub.Manifest)
	return append(w.Buf, encodePackFiles(pub.Packs)...)
}

// decodePublication splits a PUBLISH payload. The manifest and the packs
// alias b and are not checked here: Manager.CommitPublication verifies
// both whole before anything is written.
func decodePublication(b []byte) (*core.Publication, error) {
	r := &binenc.Reader{Buf: b}
	pub := &core.Publication{Fresh: int(r.U32())}
	pub.Manifest = r.Raw(int(r.U32()))
	if r.Err != nil {
		return nil, r.Err
	}
	packs, err := decodePackFiles(b[r.Off:])
	pub.Packs = packs
	return pub, err
}

// LookupInfo is the metadata LOOKUP returns without transferring traces.
type LookupInfo struct {
	File     string
	AppPath  string
	Traces   int
	CodePool uint64
	DataPool uint64
}

func encodeLookupInfo(li *LookupInfo) []byte {
	w := &binenc.Writer{}
	w.Str(li.File)
	w.Str(li.AppPath)
	w.U32(uint32(li.Traces))
	w.U64(li.CodePool)
	w.U64(li.DataPool)
	return w.Buf
}

func decodeLookupInfo(b []byte) (*LookupInfo, error) {
	r := &binenc.Reader{Buf: b}
	li := &LookupInfo{}
	li.File = r.Str(4096)
	li.AppPath = r.Str(4096)
	li.Traces = int(r.U32())
	li.CodePool = r.U64()
	li.DataPool = r.U64()
	return li, r.Done()
}

func encodeCommitReport(rep *core.CommitReport) []byte {
	w := &binenc.Writer{}
	w.U32(uint32(rep.Traces))
	w.U32(uint32(rep.NewTraces))
	w.U32(uint32(rep.Dropped))
	w.U64(rep.CodePool)
	w.U64(rep.DataPool)
	w.Str(rep.File)
	w.Bool(rep.Accumulate)
	w.Bool(rep.Skipped)
	return w.Buf
}

func decodeCommitReport(b []byte) (*core.CommitReport, error) {
	r := &binenc.Reader{Buf: b}
	rep := &core.CommitReport{}
	rep.Traces = int(r.U32())
	rep.NewTraces = int(r.U32())
	rep.Dropped = int(r.U32())
	rep.CodePool = r.U64()
	rep.DataPool = r.U64()
	rep.File = r.Str(4096)
	rep.Accumulate = r.Bool()
	rep.Skipped = r.Bool()
	return rep, r.Done()
}

func encodeDBStats(st *core.DBStats) []byte {
	w := &binenc.Writer{}
	w.U32(uint32(st.Files))
	w.U32(uint32(st.Traces))
	w.U64(st.CodePool)
	w.U64(st.DataPool)
	w.U32(uint32(len(st.Classes)))
	for _, c := range st.Classes {
		w.Str(c.VM)
		w.Str(c.Tool)
		w.U32(uint32(c.Entries))
		w.U32(uint32(c.Traces))
	}
	w.Bool(st.Store != nil)
	if st.Store != nil {
		w.U32(uint32(st.Store.Manifests))
		w.U32(uint32(st.Store.Blobs))
		w.U64(st.Store.BlobBytes)
		w.U64(st.Store.LogicalBytes)
		w.U64(math.Float64bits(st.Store.DedupRatio))
		w.U32(uint32(st.Store.Generations))
	}
	return w.Buf
}

func decodeDBStats(b []byte) (*core.DBStats, error) {
	r := &binenc.Reader{Buf: b}
	st := &core.DBStats{}
	st.Files = int(r.U32())
	st.Traces = int(r.U32())
	st.CodePool = r.U64()
	st.DataPool = r.U64()
	for i, n := 0, r.Count(1<<20); i < n && r.Err == nil; i++ {
		var c core.KeyClassCount
		c.VM = r.Str(128)
		c.Tool = r.Str(128)
		c.Entries = int(r.U32())
		c.Traces = int(r.U32())
		st.Classes = append(st.Classes, c)
	}
	if r.Err == nil && r.Bool() {
		ss := &core.StoreDBStats{}
		ss.Manifests = int(r.U32())
		ss.Blobs = int(r.U32())
		ss.BlobBytes = r.U64()
		ss.LogicalBytes = r.U64()
		ss.DedupRatio = math.Float64frombits(r.U64())
		ss.Generations = int(r.U32())
		st.Store = ss
	}
	return st, r.Done()
}

// UtilityEntry is one cache entry's usage summary, the unit of the fleet's
// global eviction policy: utility = Hits × Traces (hit frequency × the
// translation work the entry saves, the paper's cold-code economics).
type UtilityEntry struct {
	Stem     string // format-independent entry identity (file name minus extension)
	Hits     uint64 // FETCHMANIFESTS responses that carried this entry since daemon start
	Traces   int    // translated traces the entry holds
	CodePool uint64 // translated code bytes (reporting only)
}

// maxUtilityEntries bounds one UTILITY response; both ends enforce it.
const maxUtilityEntries = 1 << 20

func encodeUtilityEntries(entries []UtilityEntry) []byte {
	w := &binenc.Writer{}
	w.U32(uint32(len(entries)))
	for _, e := range entries {
		w.Str(e.Stem)
		w.U64(e.Hits)
		w.U32(uint32(e.Traces))
		w.U64(e.CodePool)
	}
	return w.Buf
}

func decodeUtilityEntries(b []byte) ([]UtilityEntry, error) {
	r := &binenc.Reader{Buf: b}
	n := r.Count(maxUtilityEntries)
	entries := make([]UtilityEntry, 0, n)
	for i := 0; i < n && r.Err == nil; i++ {
		var e UtilityEntry
		e.Stem = r.Str(4096)
		e.Hits = r.U64()
		e.Traces = int(r.U32())
		e.CodePool = r.U64()
		if r.Err != nil {
			break
		}
		entries = append(entries, e)
	}
	return entries, r.Done()
}

func encodeEvictRequest(stems []string) []byte {
	w := &binenc.Writer{}
	w.U32(uint32(len(stems)))
	for _, s := range stems {
		w.Str(s)
	}
	return w.Buf
}

func decodeEvictRequest(b []byte) ([]string, error) {
	r := &binenc.Reader{Buf: b}
	n := r.Count(maxUtilityEntries)
	stems := make([]string, 0, n)
	for i := 0; i < n && r.Err == nil; i++ {
		s := r.Str(4096)
		if r.Err != nil {
			break
		}
		stems = append(stems, s)
	}
	return stems, r.Done()
}

// EvictReport is the EVICT response: how much one shard actually removed.
type EvictReport struct {
	Evicted int // entries removed from the database
	Traces  int // translated traces those entries held
}

func encodeEvictReport(rep *EvictReport) []byte {
	w := &binenc.Writer{}
	w.U32(uint32(rep.Evicted))
	w.U32(uint32(rep.Traces))
	return w.Buf
}

func decodeEvictReport(b []byte) (*EvictReport, error) {
	r := &binenc.Reader{Buf: b}
	rep := &EvictReport{}
	rep.Evicted = int(r.U32())
	rep.Traces = int(r.U32())
	return rep, r.Done()
}

func encodeCompactReport(rep *store.CompactReport) []byte {
	w := &binenc.Writer{}
	w.U32(uint32(rep.PrunedOrphans))
	w.U64(rep.ReclaimedBytes)
	return w.Buf
}

func decodeCompactReport(b []byte) (*store.CompactReport, error) {
	r := &binenc.Reader{Buf: b}
	rep := &store.CompactReport{}
	rep.PrunedOrphans = int(r.U32())
	rep.ReclaimedBytes = r.U64()
	return rep, r.Done()
}
