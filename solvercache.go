package cawosched

import (
	"container/list"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/dag"
	"repro/internal/greenheft"
)

// This file is the solver's caching/concurrency layer: the sharded plan
// memo, the sharded solve-response LRU, and the singleflight table that
// coalesces concurrent identical solves. solver.go owns the scheduling
// pipeline; everything about how its results are stored, shared, and
// found again lives here.
//
// Both caches are split into a power-of-two number of shards, each with
// its own mutex (and, for the response cache, its own LRU list). A key's
// shard is picked by its 64-bit FNV digest, so the mapping is stable for
// the life of the process. Sharding is pure mechanism: responses,
// hit/miss counters, and entry accounting are identical at every shard
// count (Stats sums the shards); the only observable difference is which
// entry a full cache evicts first, because recency is tracked per shard.
// Shard count 1 reproduces the pre-sharding global LRU exactly. When an
// entry limit is smaller than the shard count, keys are routed over only
// the first effectiveShards(shards, limit) shards, so a tiny cache still
// admits every key instead of silently dropping the ones that hash to a
// zero-capacity shard.

// defaultCacheShards picks the shard count for a new solver: the next
// power of two at or above GOMAXPROCS, clamped to [1, 64]. One shard per
// CPU is enough to make lock collisions rare; beyond 64 the maps are so
// small that sharding further only wastes memory.
func defaultCacheShards() int {
	return normalizeShards(runtime.GOMAXPROCS(0))
}

// normalizeShards rounds n up to a power of two in [1, 64].
func normalizeShards(n int) int {
	if n < 1 {
		n = 1
	}
	if n > 64 {
		n = 64
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// effectiveShards returns how many of a cache's shards actually receive
// keys under an entry limit: the largest power of two that is at most
// min(shards, limit), so every active shard holds at least one entry.
// Without the clamp a limit below the shard count would leave some
// shards with capacity 0 — and because the key→shard mapping is fixed,
// every key hashing there would silently never be cached (found as a
// pre-clamp bug: -solve-cache-limit 4 on a 16-shard solver dropped 3 of
// 4 puts). limit <= 0 (caching disabled) keeps the full shard array; the
// caps are all zero anyway.
func effectiveShards(shards, limit int) int {
	if limit <= 0 || limit >= shards {
		return shards
	}
	p := 1
	for p*2 <= limit {
		p *= 2
	}
	return p
}

// SolverOption configures a Solver at construction (NewSolver).
type SolverOption func(*solverConfig)

type solverConfig struct {
	shards   int
	solveCap int
	planCap  int
	coalesce bool
	tier     CacheTier
}

// WithCacheShards sets the shard count of the plan memo and the
// solve-response cache. n is rounded up to a power of two and clamped to
// [1, 64]; n <= 0 selects the default (next power of two >= GOMAXPROCS).
// Shard count 1 reproduces the single-mutex global-LRU behavior exactly;
// higher counts only change which entry a full cache evicts first, never
// a response or a hit/miss counter.
func WithCacheShards(n int) SolverOption {
	return func(c *solverConfig) {
		if n > 0 {
			c.shards = normalizeShards(n)
		}
	}
}

// WithSolveCacheLimit bounds the solve-response cache at construction
// (see SetSolveCacheLimit). n <= 0 disables response caching.
func WithSolveCacheLimit(n int) SolverOption {
	return func(c *solverConfig) {
		if n < 0 {
			n = 0
		}
		c.solveCap = n
	}
}

// WithPlanCacheLimit bounds the plan memo at construction (see
// SetPlanCacheLimit). n <= 0 disables plan memoization.
func WithPlanCacheLimit(n int) SolverOption {
	return func(c *solverConfig) {
		if n < 0 {
			n = 0
		}
		c.planCap = n
	}
}

// WithCoalescing enables or disables singleflight coalescing of
// concurrent identical solves (enabled by default). Coalescing is pure
// mechanism — every request receives the identical response either way —
// so the switch exists for measurement and bisection, not correctness.
func WithCoalescing(on bool) SolverOption {
	return func(c *solverConfig) { c.coalesce = on }
}

// WithCacheTier installs an external cache tier consulted between the
// in-process response cache and a full solve (see CacheTier).
func WithCacheTier(t CacheTier) SolverOption {
	return func(c *solverConfig) { c.tier = t }
}

// ---- key digests --------------------------------------------------------

// b2u maps a bool to one digest word.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// sum returns the 64-bit FNV-1a digest of the whole solve key — every
// field that makes two solves interchangeable. It picks the key's cache
// shard and, rendered as hex, keys the external cache tier, so a fleet of
// schedd processes with identical builds computes identical tier keys.
func (k solveKey) sum() uint64 {
	h := dag.NewHash()
	h.U64(k.fp)
	h.U64(k.digest)
	h.I64(k.deadline)
	h.U64(uint64(k.opt.Score))
	h.U64(b2u(k.opt.Refined))
	h.U64(b2u(k.opt.LocalSearch))
	h.U64(uint64(k.opt.K))
	h.I64(k.opt.Mu)
	h.U64(b2u(k.marginal))
	h.U64(uint64(k.policy))
	h.U64(b2u(k.mapSearch))
	return h.Sum64()
}

// sum returns the shard-picking digest of a plan key.
func (k planKey) sum() uint64 {
	h := dag.NewHash()
	h.U64(k.fp)
	h.U64(uint64(k.policy))
	h.U64(k.zd)
	return h.Sum64()
}

// lockContended acquires mu, counting into contended when the lock was
// already held — the solver's cheap measure of real shard contention
// (a TryLock that fails is exactly a request that would have queued on
// the old global mutex).
func lockContended(mu *sync.Mutex, contended *atomic.Int64) {
	if mu.TryLock() {
		return
	}
	contended.Add(1)
	mu.Lock()
}

// ---- plan memo shards ---------------------------------------------------

// planShard is one shard of the plan memo: its own mutex, map, and share
// of the total capacity. When full, an arbitrary entry is evicted on
// insert — a simple bound that keeps a long-lived service from growing
// without limit while never evicting the entries a steady workload reuses
// fastest (those are re-admitted on the next miss).
type planShard struct {
	mu      sync.Mutex
	entries map[planKey]*planEntry
	cap     int
}

func (s *Solver) planShardFor(key planKey) *planShard {
	return &s.planShards[key.sum()&uint64(s.planEff.Load()-1)]
}

// planLookup returns the memoized entry for the key, inserting a fresh
// one on miss. hit is false for the inserting caller (which then builds
// the entry; concurrent lookups of the same key block on its sync.Once).
// With plan caching disabled the fresh entry is returned unmemoized.
func (s *Solver) planLookup(key planKey, wf *DAG, pol greenheft.Policy, zones *ZoneSet) (e *planEntry, hit bool) {
	shard := s.planShardFor(key)
	lockContended(&shard.mu, &s.planContention)
	defer shard.mu.Unlock()
	e, hit = shard.entries[key]
	if hit {
		return e, true
	}
	e = &planEntry{wf: wf, policy: pol, zones: zones}
	if shard.cap > 0 {
		if len(shard.entries) >= shard.cap {
			for k := range shard.entries {
				delete(shard.entries, k)
				break
			}
		}
		shard.entries[key] = e
	}
	return e, false
}

// SetPlanCacheLimit bounds the plan memo to at most n entries (distributed
// across the shards), evicting arbitrary entries if it currently holds
// more. n <= 0 disables and clears the memo: every plan request builds
// fresh. The default limit is 4096.
func (s *Solver) SetPlanCacheLimit(n int) {
	if n < 0 {
		n = 0
	}
	eff := effectiveShards(len(s.planShards), n)
	s.planCap.Store(int64(n))
	s.planEff.Store(int64(eff))
	for i := range s.planShards {
		shard := &s.planShards[i]
		cap := 0
		if i < eff {
			cap = shardShare(n, i, eff)
		}
		lockContended(&shard.mu, &s.planContention)
		shard.cap = cap
		if cap <= 0 {
			// Inactive (or disabled) shard: drop its entries — with the
			// shrunken mask no lookup will ever reach them again.
			shard.entries = make(map[planKey]*planEntry)
		} else {
			for k := range shard.entries {
				if len(shard.entries) <= cap {
					break
				}
				delete(shard.entries, k)
			}
		}
		shard.mu.Unlock()
	}
}

// ResetPlans drops every memoized plan (e.g. after a batch of one-off
// workflows). Counters and the solve-response cache are unaffected.
func (s *Solver) ResetPlans() {
	for i := range s.planShards {
		shard := &s.planShards[i]
		lockContended(&shard.mu, &s.planContention)
		shard.entries = make(map[planKey]*planEntry)
		shard.mu.Unlock()
	}
}

// planEntries sums the shard sizes for Stats.
func (s *Solver) planEntries() int {
	n := 0
	for i := range s.planShards {
		shard := &s.planShards[i]
		lockContended(&shard.mu, &s.planContention)
		n += len(shard.entries)
		shard.mu.Unlock()
	}
	return n
}

// shardShare splits a total capacity n across k shards: every shard gets
// n/k, and the remainder goes to the lowest-indexed shards, so the shares
// sum to exactly n. Callers pass the *effective* shard count (see
// effectiveShards), which is clamped so that k <= n: every active shard
// has capacity for at least one entry and every key is cacheable.
func shardShare(n, i, k int) int {
	share := n / k
	if i < n%k {
		share++
	}
	return share
}

// ---- solve-response cache shards ----------------------------------------

// solveShard is one shard of the solve-response cache: its own mutex,
// map, LRU list, and share of the total capacity.
type solveShard struct {
	mu        sync.Mutex
	responses map[solveKey]*solveEntry
	lru       *list.List // *solveEntry values; front = most recently used
	cap       int
}

func (s *Solver) solveShardFor(key solveKey) *solveShard {
	return &s.solveShards[key.sum()&uint64(s.solveEff.Load()-1)]
}

func (sh *solveShard) evictOldestLocked() {
	back := sh.lru.Back()
	if back == nil {
		return
	}
	e := back.Value.(*solveEntry)
	sh.lru.Remove(back)
	delete(sh.responses, e.key)
}

// solveCacheGet returns a cached response for the key, guarded against
// fingerprint/digest collisions by structural comparison with the
// request's actual workflow and zone set. The returned response carries a
// fresh Schedule clone, so callers may mutate it without poisoning the
// cache.
func (s *Solver) solveCacheGet(key solveKey, wf *DAG, zones *ZoneSet) (*Response, bool) {
	sh := s.solveShardFor(key)
	lockContended(&sh.mu, &s.solveContention)
	defer sh.mu.Unlock()
	e, ok := sh.responses[key]
	if !ok || !e.wf.Equal(wf) || !e.resp.Zones.EqualZoneSet(zones) {
		return nil, false
	}
	sh.lru.MoveToFront(e.elem)
	resp := e.resp
	resp.Schedule = e.resp.Schedule.Clone()
	resp.CacheHit = true
	return &resp, true
}

// solveCachePut stores a successful response under the key, evicting the
// shard's least-recently-used entry when it is full. The cache keeps its
// own Schedule clone so later caller mutations cannot corrupt it, and a
// private clone of the zone set as the stored response's supply (and
// collision guard) — the request's own set is not retained.
func (s *Solver) solveCachePut(key solveKey, wf *DAG, zones *ZoneSet, resp *Response) {
	sh := s.solveShardFor(key)
	lockContended(&sh.mu, &s.solveContention)
	defer sh.mu.Unlock()
	if sh.cap <= 0 {
		return
	}
	stored := *resp
	stored.Schedule = resp.Schedule.Clone()
	stored.Zones = zones.Clone()
	if stored.Profile != nil {
		stored.Profile = stored.Zones.Profile(0)
	}
	stored.CacheHit = false
	stored.Coalesced = false
	stored.Timings = nil // stale wall clock must never be served from cache
	if e, ok := sh.responses[key]; ok {
		// Overwrite (e.g. a collision victim re-solved): freshest wins.
		e.wf, e.resp = wf, stored
		sh.lru.MoveToFront(e.elem)
		return
	}
	for len(sh.responses) >= sh.cap {
		sh.evictOldestLocked()
	}
	e := &solveEntry{key: key, wf: wf, resp: stored}
	e.elem = sh.lru.PushFront(e)
	sh.responses[key] = e
}

// SetSolveCacheLimit bounds the solve-response cache to at most n entries
// in total (distributed across the shards), evicting least-recently-used
// responses if it currently holds more. n <= 0 disables and clears the
// cache. The default limit is 4096.
func (s *Solver) SetSolveCacheLimit(n int) {
	if n < 0 {
		n = 0
	}
	eff := effectiveShards(len(s.solveShards), n)
	s.solveCap.Store(int64(n))
	s.solveEff.Store(int64(eff))
	for i := range s.solveShards {
		sh := &s.solveShards[i]
		cap := 0
		if i < eff {
			cap = shardShare(n, i, eff)
		}
		lockContended(&sh.mu, &s.solveContention)
		sh.cap = cap
		for len(sh.responses) > 0 && len(sh.responses) > cap {
			sh.evictOldestLocked()
		}
		sh.mu.Unlock()
	}
}

// ResetSolveCache drops every cached response. Counters are unaffected.
func (s *Solver) ResetSolveCache() {
	for i := range s.solveShards {
		sh := &s.solveShards[i]
		lockContended(&sh.mu, &s.solveContention)
		sh.responses = make(map[solveKey]*solveEntry)
		sh.lru = list.New()
		sh.mu.Unlock()
	}
}

// solveEntriesCount sums the shard sizes for Stats.
func (s *Solver) solveEntriesCount() int {
	n := 0
	for i := range s.solveShards {
		sh := &s.solveShards[i]
		lockContended(&sh.mu, &s.solveContention)
		n += len(sh.responses)
		sh.mu.Unlock()
	}
	return n
}

// ---- singleflight coalescing --------------------------------------------

// errLeaderAborted is published to followers when a coalesced solve's
// leader unwinds (panics) between election and publication; the panic
// itself propagates on the leader's own request.
var errLeaderAborted = errors.New("cawosched: coalesced solve leader aborted")

// flight is one in-flight cacheable solve that concurrent identical
// requests may join: the leader computes, publishes resp/err, and closes
// done; followers block on done (or their own context) and share the
// result. Error results propagate to every follower but are never
// cached. The workflow and zone set guard followers against joining a
// digest-colliding flight, exactly like the cache's structural guards.
type flight struct {
	wf    *DAG
	zones *ZoneSet
	done  chan struct{}
	resp  *Response // stored copy (private Schedule); nil on error
	err   error
}

// joinFlight coalesces the key's solve. Returns:
//   - (f, true): this request is the leader and must finishFlight f.
//   - (f, false): follower — wait on f.done.
//   - (nil, false): no coalescing (disabled, or the in-flight leader's
//     key collides structurally): solve solo.
func (s *Solver) joinFlight(key solveKey, wf *DAG, zones *ZoneSet) (*flight, bool) {
	if !s.coalesce {
		return nil, false
	}
	s.fmu.Lock()
	defer s.fmu.Unlock()
	if f, ok := s.flights[key]; ok {
		if !f.wf.Equal(wf) || !f.zones.EqualZoneSet(zones) {
			return nil, false
		}
		return f, false
	}
	f := &flight{wf: wf, zones: zones, done: make(chan struct{})}
	s.flights[key] = f
	return f, true
}

// finishFlight publishes the leader's outcome and wakes every follower.
// The caller stores the response into the cache (when applicable) before
// calling, so no later request can land in the gap between flight removal
// and cache insertion.
func (s *Solver) finishFlight(key solveKey, f *flight, resp *Response, err error) {
	s.fmu.Lock()
	delete(s.flights, key)
	s.fmu.Unlock()
	f.resp, f.err = resp, err
	close(f.done)
}

// sharedCopy returns the flight-publishable form of a fresh response: a
// private Schedule clone with the per-request fields (timings, hit/
// coalesce flags) zeroed, mirroring what the cache stores.
func sharedCopy(resp *Response) *Response {
	stored := *resp
	stored.Schedule = resp.Schedule.Clone()
	stored.CacheHit = false
	stored.Coalesced = false
	stored.Timings = nil
	return &stored
}
