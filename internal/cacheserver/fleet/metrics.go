package fleet

import (
	"persistcc/internal/metrics"
)

// fleetMetrics holds the routing client's registry families.
type fleetMetrics struct {
	requests      *metrics.CounterVec // op, shard: logical ops by primary owner
	redirects     *metrics.CounterVec // op: reads served by a non-primary owner
	replicaWrites *metrics.Counter    // successful writes beyond the primary
	writeErrors   *metrics.Counter    // per-owner publish failures
	evictions     *metrics.Counter    // entries evicted by global compaction
	shards        *metrics.Gauge      // configured fleet size
}

func newFleetMetrics(r *metrics.Registry) *fleetMetrics {
	return &fleetMetrics{
		requests:      r.CounterVec("pcc_fleet_requests_total", "logical fleet operations by op and primary-owner shard", "op", "shard"),
		redirects:     r.CounterVec("pcc_fleet_redirects_total", "reads served by a replica after the primary owner failed or missed", "op"),
		replicaWrites: r.Counter("pcc_fleet_replica_writes_total", "successful publishes to owners beyond the primary"),
		writeErrors:   r.Counter("pcc_fleet_write_errors_total", "publishes that failed on one owner shard"),
		evictions:     r.Counter("pcc_fleet_evictions_total", "entries evicted fleet-wide by utility-based global compaction"),
		shards:        r.Gauge("pcc_fleet_shards", "shards in the fleet membership"),
	}
}
