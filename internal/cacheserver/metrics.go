package cacheserver

import (
	"persistcc/internal/metrics"
)

// serverMetrics holds the daemon's registry families.
type serverMetrics struct {
	requests    *metrics.CounterVec   // op, status
	latency     *metrics.HistogramVec // op
	dedups      *metrics.Counter
	connections *metrics.Counter
	activeConns *metrics.Gauge
	frameBytes  *metrics.CounterVec // dir=in|out
	connDrops   *metrics.CounterVec // reason=oversized|timeout
	draining    *metrics.Gauge
}

func newServerMetrics(r *metrics.Registry) *serverMetrics {
	return &serverMetrics{
		requests:    r.CounterVec("pcc_server_requests_total", "requests served by op and status", "op", "status"),
		latency:     r.HistogramVec("pcc_server_request_seconds", "request handling latency by op", nil, "op"),
		dedups:      r.Counter("pcc_server_singleflight_dedup_total", "publishes coalesced into an identical in-flight merge"),
		connections: r.Counter("pcc_server_connections_total", "client connections accepted"),
		activeConns: r.Gauge("pcc_server_active_connections", "client connections currently open"),
		frameBytes:  r.CounterVec("pcc_server_frame_bytes_total", "protocol payload bytes moved", "dir"),
		connDrops:   r.CounterVec("pcc_server_conn_drops_total", "connections severed defensively", "reason"),
		draining:    r.Gauge("pcc_server_draining", "1 while a graceful shutdown drains in-flight requests"),
	}
}

// clientMetrics holds the client-side registry families. The
// pcc_client_fallbacks_total family lives on Fallback (the degradation
// decision happens there, whatever transport carries the requests).
type clientMetrics struct {
	requests     *metrics.CounterVec // op
	retries      *metrics.Counter
	dialErrors   *metrics.Counter
	breakerOpens *metrics.Counter
	breakerFast  *metrics.Counter
	breakerState *metrics.Gauge // 1 open, 0 closed
}

func newClientMetrics(r *metrics.Registry) *clientMetrics {
	return &clientMetrics{
		requests:     r.CounterVec("pcc_client_requests_total", "requests sent to the cache server", "op"),
		retries:      r.Counter("pcc_client_retries_total", "request attempts beyond the first"),
		dialErrors:   r.Counter("pcc_client_dial_errors_total", "failed connection attempts"),
		breakerOpens: r.Counter("pcc_client_breaker_opens_total", "circuit-breaker trips after consecutive transport failures"),
		breakerFast:  r.Counter("pcc_client_breaker_fastfails_total", "requests short-circuited while the breaker was open"),
		breakerState: r.Gauge("pcc_client_breaker_open", "1 while the circuit breaker is open"),
	}
}

// opName renders a protocol op code for metric labels.
func opName(op uint8) string {
	switch op {
	case OpLookup:
		return "lookup"
	case OpPublish:
		return "publish"
	case OpStats:
		return "stats"
	case OpMetrics:
		return "metrics"
	case OpFetchManifests:
		return "fetchmanifests"
	case OpFetchPacks:
		return "fetchpacks"
	case OpUtility:
		return "utility"
	case OpEvict:
		return "evict"
	case OpCompact:
		return "compact"
	}
	return "unknown"
}

// statusName renders a protocol status code for metric labels.
func statusName(status uint8) string {
	switch status {
	case StatusOK:
		return "ok"
	case StatusNotFound:
		return "notfound"
	}
	return "error"
}

// Metrics returns the server's registry. By default the server owns a
// private registry; share one with WithMetrics (it already shares the
// manager's when the manager was built with core.WithMetrics on the same
// registry).
func (s *Server) Metrics() *metrics.Registry { return s.metrics }

// WithMetrics records the server's counters into reg instead of a private
// registry.
func WithMetrics(reg *metrics.Registry) Option {
	return func(s *Server) {
		if reg != nil {
			s.metrics = reg
		}
	}
}

// Metrics returns the client's registry.
func (c *Client) Metrics() *metrics.Registry { return c.metrics }

// WithClientMetrics records the client's counters into reg instead of a
// private registry.
func WithClientMetrics(reg *metrics.Registry) ClientOption {
	return func(c *Client) {
		if reg != nil {
			c.metrics = reg
		}
	}
}

// ServerMetrics fetches the daemon's full registry snapshot over the wire
// (the METRICS op) — the same families /metrics exposes, as JSON.
func (c *Client) ServerMetrics() (*metrics.Snapshot, error) {
	resp, err := c.do(OpMetrics, nil)
	if err != nil {
		return nil, err
	}
	return metrics.ParseSnapshot(resp)
}
