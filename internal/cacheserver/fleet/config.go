// Package fleet is how a run reaches shared cache daemons, one or many: static
// membership configuration, consistent-hash routing of trace and blob keys
// across N shards (with virtual nodes so the key space rebalances
// smoothly), R-way replication with reads that walk the owners in ring
// order, fleet-wide STATS, and utility-based global cache management in
// the ShareJIT style — per-shard usage summaries ranked fleet-wide by hit
// frequency × translation cost, with the losers evicted everywhere.
//
// A single daemon is a fleet of one (Single). Every piece of fleet logic
// lives in the routing client: the daemons never talk to each other, and
// each answers for its own database only.
//
// The routing client implements cacheserver.Transport, so a run fronts the
// fleet through cacheserver.Fallback: a dead shard degrades to its replicas
// through each shard client's circuit breaker, and only when every owner
// of a key is gone does the request degrade to the run's local database
// tier. A fleet failure is never a user-visible failure.
package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// Defaults for optional Config fields.
const (
	DefaultReplicas     = 2
	DefaultVirtualNodes = 64
)

// Shard is one fleet member: a stable identity and the address its daemon
// listens on ("host:port" or "unix:/path").
type Shard struct {
	ID   string `json:"id"`
	Addr string `json:"addr"`
}

// Config is the fleet's static membership, shared verbatim by every client.
// Routing is a pure function of this file, so all clients agree on key
// placement without coordination; the daemons never read it.
type Config struct {
	Shards []Shard `json:"shards"`

	// Replicas is how many distinct shards hold each key (writes go to all
	// of them, reads try them in ring order). 0 means DefaultReplicas;
	// values beyond the shard count clamp to it.
	Replicas int `json:"replicas,omitempty"`

	// VirtualNodes is how many ring points each shard claims; more points
	// smooth the key-space split. 0 means DefaultVirtualNodes.
	VirtualNodes int `json:"virtual_nodes,omitempty"`
}

// ParseConfig decodes and validates a membership config. Unknown fields
// are rejected: a typoed "replicas" silently defaulting would give the
// typo'd party a different replication factor than the rest of the fleet.
func ParseConfig(b []byte) (*Config, error) {
	cfg := &Config{}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(cfg); err != nil {
		return nil, fmt.Errorf("fleet: bad config: %w", err)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return cfg, nil
}

// Single is the membership of a fleet of one: the daemon at addr, which is
// also its shard ID.
func Single(addr string) *Config {
	return &Config{Shards: []Shard{{ID: addr, Addr: addr}}}
}

// LoadConfig reads and validates a membership config file.
func LoadConfig(path string) (*Config, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("fleet: read config: %w", err)
	}
	return ParseConfig(b)
}

// Validate checks the membership for the invariants routing depends on.
func (c *Config) Validate() error {
	if len(c.Shards) == 0 {
		return fmt.Errorf("fleet: config has no shards")
	}
	ids := make(map[string]bool, len(c.Shards))
	addrs := make(map[string]bool, len(c.Shards))
	for i, s := range c.Shards {
		if s.ID == "" {
			return fmt.Errorf("fleet: shard %d has no id", i)
		}
		if s.Addr == "" {
			return fmt.Errorf("fleet: shard %q has no addr", s.ID)
		}
		if ids[s.ID] {
			return fmt.Errorf("fleet: duplicate shard id %q", s.ID)
		}
		if addrs[s.Addr] {
			return fmt.Errorf("fleet: duplicate shard addr %q", s.Addr)
		}
		ids[s.ID] = true
		addrs[s.Addr] = true
	}
	if c.Replicas < 0 {
		return fmt.Errorf("fleet: negative replicas %d", c.Replicas)
	}
	if c.VirtualNodes < 0 {
		return fmt.Errorf("fleet: negative virtual_nodes %d", c.VirtualNodes)
	}
	return nil
}

// EffectiveReplicas resolves the replication factor: the configured value
// (default DefaultReplicas) clamped to the shard count.
func (c *Config) EffectiveReplicas() int {
	r := c.Replicas
	if r == 0 {
		r = DefaultReplicas
	}
	if r > len(c.Shards) {
		r = len(c.Shards)
	}
	if r < 1 {
		r = 1
	}
	return r
}

// effectiveVirtualNodes resolves the per-shard ring point count.
func (c *Config) effectiveVirtualNodes() int {
	if c.VirtualNodes == 0 {
		return DefaultVirtualNodes
	}
	return c.VirtualNodes
}
