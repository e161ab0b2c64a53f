// Package cluster is the fault-tolerant sharded serving tier: a stateless
// router that consistent-hashes annotation requests across N shard
// processes (cmd/serve -shard), fails over deterministically between R
// replicas, hedges slow reads, trips per-shard circuit breakers, and
// enforces per-tenant quotas — all on seeded schedules so a multi-process
// chaos run reproduces the exact same failover/hedge/breaker counters on
// every run (DESIGN.md §8).
//
// The router is stateless by construction: shard placement is a pure
// function of (shard names, vnodes, request key), breaker cooldowns and
// hedge delays are pure functions of a seed, and the chaos injector's
// cluster plans are pure functions of (seed, request index). Any router
// replica given the same configuration makes the same decisions.
package cluster

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// DefaultVnodes is the virtual-node count per shard. 64 vnodes keep the
// keyspace imbalance across a handful of shards in the few-percent range
// while the ring stays small enough to rebuild on every topology change.
const DefaultVnodes = 64

// Ring is a consistent-hash ring over shard *names*. Hashing names rather
// than addresses keeps placement stable across restarts and lets tests
// replicate the key→shard mapping independent of which ports the shard
// processes bound.
type Ring struct {
	points []ringPoint // sorted by (hash, shard)
	shards int
}

type ringPoint struct {
	hash  uint64
	shard int // index into the name list NewRing was built from
}

// NewRing places vnodes points per shard on the ring. vnodes <= 0 uses
// DefaultVnodes. The shard order of the input slice defines the indexes
// Replicas returns.
func NewRing(names []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	r := &Ring{points: make([]ringPoint, 0, len(names)*vnodes), shards: len(names)}
	for i, name := range names {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: hashPoint(name, v), shard: i})
		}
	}
	// Ties broken by shard index so the walk order is total — two vnodes
	// hashing identically (astronomically unlikely, but the contract must
	// not depend on luck) still yield one deterministic ring.
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].shard < r.points[b].shard
	})
	return r
}

// hashPoint is the vnode hash: FNV-64a over "name#vnode", finished with a
// splitmix64-style mix. Shard names are near-identical short strings, and
// raw FNV clusters them badly enough to skew arc lengths several-fold; the
// finalizer restores the spread vnode placement needs. Part of the
// determinism contract — tests re-derive placement with the same function.
func hashPoint(name string, vnode int) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name)) // fnv never errors
	_, _ = h.Write([]byte{'#'})
	_, _ = h.Write([]byte(strconv.Itoa(vnode)))
	return mix64(h.Sum64())
}

// mix64 is the splitmix64 finalizer (Steele et al.): a bijective avalanche
// over uint64.
func mix64(v uint64) uint64 {
	v ^= v >> 30
	v *= 0xbf58476d1ce4e5b9
	v ^= v >> 27
	v *= 0x94d049bb133111eb
	v ^= v >> 31
	return v
}

// Replicas returns the indexes of up to n distinct shards responsible for
// key, in failover order: the shard owning the first ring point at or
// clockwise of key, then the next distinct shard clockwise, and so on.
// Every replica choice every router makes flows from this walk.
func (r *Ring) Replicas(key uint64, n int) []int {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > r.shards {
		n = r.shards
	}
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= key })
	out := make([]int, 0, n)
	seen := make(map[int]bool, n)
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
