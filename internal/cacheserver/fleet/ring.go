package fleet

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// ring is the consistent-hash routing table: every shard claims
// VirtualNodes points on a 64-bit circle, a key is owned by the first
// point at or clockwise of its hash, and the replica set is the next
// distinct shards continuing clockwise. Placement is a pure function of
// the membership config, so daemons and clients built from the same file
// route identically; adding a shard moves only ~1/N of the key space.
type ring struct {
	points []ringPoint // sorted by hash
	shards int
}

type ringPoint struct {
	hash  uint64
	shard int // index into Config.Shards
}

// keyHash positions a routing key (cache-file stem or blob-hash hex) on
// the circle: FNV-64a — stable across platforms and Go versions, which the
// deterministic Zipf fleet test depends on — through a splitmix64
// finalizer. The finalizer matters: raw FNV of short, similar strings
// (the "id#vnode" labels) clusters on the circle badly enough that one
// shard can own over half the key space at any vnode count.
func keyHash(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func newRing(cfg *Config) *ring {
	vnodes := cfg.effectiveVirtualNodes()
	r := &ring{
		points: make([]ringPoint, 0, len(cfg.Shards)*vnodes),
		shards: len(cfg.Shards),
	}
	for i, s := range cfg.Shards {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:  keyHash(fmt.Sprintf("%s#%d", s.ID, v)),
				shard: i,
			})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		// Ties (vanishingly rare) break by shard index so the ring stays
		// deterministic regardless of sort stability.
		return r.points[a].shard < r.points[b].shard
	})
	return r
}

// owners returns the n distinct shards responsible for key, primary first,
// walking clockwise from the key's position. n clamps to the shard count.
func (r *ring) owners(key string, n int) []int {
	if n > r.shards {
		n = r.shards
	}
	if n < 1 {
		n = 1
	}
	out := make([]int, 0, n)
	seen := make(map[int]bool, n)
	start := sort.Search(len(r.points), func(i int) bool {
		return r.points[i].hash >= keyHash(key)
	})
	for i := 0; len(out) < n && i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if seen[p.shard] {
			continue
		}
		seen[p.shard] = true
		out = append(out, p.shard)
	}
	return out
}
