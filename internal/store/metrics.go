package store

import (
	"persistcc/internal/metrics"
)

// storeMetrics holds the pcc_store_* families. Store operations are
// low-frequency (commit, prime, compaction), so counters are incremented
// directly at the call sites, like the manager's.
type storeMetrics struct {
	// pcc_store_blob_hits_total{tier=l2|l3}, resolved to its two counters
	// once: a prime resolves hundreds of blobs, and a family lookup per blob
	// is a string join and a map probe. l3 counts blobs read from packs this
	// process received from another machine.
	hitsL2, hitsL3 *metrics.Counter

	misses       *metrics.Counter
	written      *metrics.Counter
	writtenBytes *metrics.Counter
	dedupBlobs   *metrics.Counter
	dedupBytes   *metrics.Counter
	quarantined  *metrics.Counter
	compactions  *metrics.Counter
	pruned       *metrics.Counter
	prunedBytes  *metrics.Counter

	blobs      *metrics.Gauge
	blobBytes  *metrics.Gauge
	generation *metrics.Gauge
}

func newStoreMetrics(r *metrics.Registry) *storeMetrics {
	if r == nil {
		r = metrics.NewRegistry()
	}
	hits := r.CounterVec("pcc_store_blob_hits_total", "blob lookups resolved, by tier", "tier")
	return &storeMetrics{
		hitsL2:       hits.With("l2"),
		hitsL3:       hits.With("l3"),
		misses:       r.Counter("pcc_store_blob_misses_total", "blob lookups that found no local copy"),
		written:      r.Counter("pcc_store_blobs_written_total", "new blobs written to the content store"),
		writtenBytes: r.Counter("pcc_store_blob_written_bytes_total", "bytes written for new blobs"),
		dedupBlobs:   r.Counter("pcc_store_dedup_blobs_total", "blob writes elided because the content already existed"),
		dedupBytes:   r.Counter("pcc_store_dedup_bytes_total", "bytes NOT written thanks to content deduplication"),
		quarantined:  r.Counter("pcc_store_blob_quarantine_total", "blobs quarantined on a failed content check"),
		compactions:  r.Counter("pcc_store_compactions_total", "compaction runs"),
		pruned:       r.Counter("pcc_store_pruned_blobs_total", "unreferenced blobs deleted by compaction"),
		prunedBytes:  r.Counter("pcc_store_pruned_bytes_total", "bytes reclaimed by compaction"),
		blobs:        r.Gauge("pcc_store_blobs", "addressable blobs in the local store, as of the last stats walk"),
		blobBytes:    r.Gauge("pcc_store_blob_bytes", "physical bytes across addressable blobs"),
		generation:   r.Gauge("pcc_store_generation", "generation new blobs are written to"),
	}
}
