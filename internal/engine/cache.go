package engine

import (
	"container/list"
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultCacheCapacity is the entry cap of the cache an Engine creates
// when none is injected: a hard ceiling on cached spaces regardless of
// their size.
const DefaultCacheCapacity = 64

// DefaultCacheBytes is the default byte budget of a new SpaceCache.
// Counted spaces pin their whole MEMO plus the per-operator count
// tables, and their sizes vary by orders of magnitude (a single-table
// query's space is a few KB; Q8 with Cartesian products is MBs), so
// eviction is driven by estimated bytes (StructureSpace.SizeBytes), with
// the entry cap as a secondary bound.
const DefaultCacheBytes = 512 << 20

// ShardStats is one shard's slice of the cache counters.
type ShardStats struct {
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Evictions     uint64 `json:"evictions"`
	Invalidations uint64 `json:"invalidations"`
	Entries       int    `json:"entries"`
	BytesCached   int64  `json:"bytes_cached"`
}

// CacheStats is a point-in-time snapshot of a SpaceCache's counters,
// aggregated over all shards, with the per-shard breakdown attached so
// operators can spot skewed fingerprint distributions.
type CacheStats struct {
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Evictions     uint64 `json:"evictions"`     // LRU pressure (entry cap or byte budget)
	Invalidations uint64 `json:"invalidations"` // catalog schema-version bumps
	Entries       int    `json:"entries"`
	Capacity      int    `json:"capacity"`
	BytesCached   int64  `json:"bytes_cached"` // estimated bytes pinned by ready entries
	ByteBudget    int64  `json:"byte_budget"`  // 0 = unlimited

	// Arithmetic counts resident spaces by the tier serving them
	// ("uint64", "wide"), so /stats shows which engine each
	// cached query landed on.
	Arithmetic map[string]int `json:"arithmetic,omitempty"`

	// Shards is the per-shard breakdown (len 1 for an unsharded cache).
	Shards []ShardStats `json:"shards,omitempty"`
}

// flight is one singleflight build slot, the mechanism both cache tiers
// share. It is published under the shard lock before its build runs, so
// concurrent callers for the same fingerprint find it and wait on ready
// instead of building a second time. After ready closes, val and err
// are immutable.
type flight[T any] struct {
	ready chan struct{}
	val   T
	err   error
}

func newFlight[T any]() flight[T] { return flight[T]{ready: make(chan struct{})} }

// done reports whether the build has completed.
func (f *flight[T]) done() bool {
	select {
	case <-f.ready:
		return true
	default:
		return false
	}
}

// wait blocks until the build completes and returns its result.
func (f *flight[T]) wait() (T, error) {
	<-f.ready
	return f.val, f.err
}

// run executes build and completes the flight on success, error, and
// panic alike, then calls settle with the shard lock held so the tier
// can charge, keep, or drop the result. The completion must not be
// skipped: a slot whose ready channel never closes would wedge every
// current and future waiter on its fingerprint (net/http recovers
// handler panics, so the server would otherwise keep running with a
// poisoned slot). A panic fails the slot for every waiter and then
// propagates to this caller.
func (f *flight[T]) run(sh *cacheShard, fp Fingerprint, build func() (T, error), settle func(T, error)) (val T, err error) {
	finished := false
	defer func() {
		if !finished {
			err = fmt.Errorf("engine: build panicked for fingerprint %s", fp)
		}
		sh.mu.Lock()
		f.val, f.err = val, err
		close(f.ready)
		settle(val, err)
		sh.mu.Unlock()
	}()
	val, err = build()
	finished = true
	return val, err
}

// cacheEntry is one structure fingerprint's slot. Its overlays map
// holds the cost overlays built over the structure, keyed by overlay
// fingerprint and guarded by the shard lock; they live exactly as long
// as the entry.
type cacheEntry struct {
	flight[*StructureSpace]
	fp       Fingerprint
	version  uint64 // catalog schema version the space was built against
	bytes    int64  // estimated structure size, set when the build completes
	elem     *list.Element
	overlays map[Fingerprint]*overlayEntry
}

// cacheShard is one shared-nothing slice of the cache: its own mutex,
// entry map, LRU list, byte accounting, and counters. A fingerprint
// maps to exactly one shard, so unrelated queries never contend on one
// lock.
type cacheShard struct {
	mu       sync.Mutex
	cap      int
	maxBytes int64 // 0 = unlimited
	bytes    int64 // estimated structure bytes of ready entries
	entries  map[Fingerprint]*cacheEntry
	lru      *list.List // front = most recently used; values are *cacheEntry
	version  uint64     // newest catalog schema version observed

	hits, misses, evictions, invalidations uint64
	ovHits, ovMisses, ovInvalidations      uint64 // overlay lookups in this shard's entries
}

// SpaceCache is a concurrency-safe LRU of counted plan spaces keyed by
// query fingerprint, sharded GOMAXPROCS ways by fingerprint prefix so
// concurrent Prepare traffic for distinct queries takes distinct locks
// (the ROADMAP's "shared-nothing shard per CPU"). Each shard collapses
// concurrent misses for one fingerprint into a single build, evicts
// least-recently-used spaces beyond its capacity and byte-budget slice,
// and drops every stale space the moment it observes a newer catalog
// schema version (table/column/index changes — a statistics refresh
// only invalidates cost overlays, never structures). Each entry also
// carries the cost overlays of its structure (see overlay.go), so an
// overlay never outlives, and never pins, an evicted structure. A
// single cache may be shared by any number of Engines and Sessions.
type SpaceCache struct {
	shards []*cacheShard

	// version is the newest catalog schema version any caller has presented.
	// A bump broadcasts invalidation to every shard immediately (see
	// entry) — stale spaces must release their memory promptly,
	// not only when their own shard next sees traffic — while the
	// steady state stays a single atomic load per lookup.
	version atomic.Uint64
}

// NewSpaceCache returns a cache holding at most capacity counted spaces
// and at most DefaultCacheBytes of estimated space memory, sharded
// GOMAXPROCS ways (capped so every shard keeps at least one entry of
// capacity); capacities below one are clamped to one. Adjust or disable
// the byte budget with SetByteBudget.
func NewSpaceCache(capacity int) *SpaceCache {
	return NewSpaceCacheSharded(capacity, runtime.GOMAXPROCS(0))
}

// NewSpaceCacheSharded is NewSpaceCache with an explicit shard count —
// 1 yields the classic single-lock cache with globally exact LRU order
// (tests and tiny deployments); more shards trade LRU exactness across
// shards for lock locality. The capacity and the byte budget are split
// evenly across shards.
func NewSpaceCacheSharded(capacity, shards int) *SpaceCache {
	if capacity < 1 {
		capacity = 1
	}
	if shards < 1 {
		shards = 1
	}
	if shards > capacity {
		shards = capacity // every shard must hold at least one entry
	}
	c := &SpaceCache{shards: make([]*cacheShard, shards)}
	per := (capacity + shards - 1) / shards
	perBytes := int64(DefaultCacheBytes) / int64(shards)
	for i := range c.shards {
		c.shards[i] = &cacheShard{
			cap:      per,
			maxBytes: perBytes,
			entries:  make(map[Fingerprint]*cacheEntry),
			lru:      list.New(),
		}
	}
	return c
}

// shardFor routes a fingerprint to its shard by prefix. The fingerprint
// is a SHA-256 digest, so the first eight bytes are uniformly
// distributed and any shard count divides the traffic evenly.
func (c *SpaceCache) shardFor(fp Fingerprint) *cacheShard {
	if len(c.shards) == 1 {
		return c.shards[0]
	}
	return c.shards[binary.LittleEndian.Uint64(fp[:8])%uint64(len(c.shards))]
}

// Shards reports the shard count.
func (c *SpaceCache) Shards() int { return len(c.shards) }

// SetByteBudget replaces the cache's byte budget (0 disables byte-based
// eviction entirely), splitting it evenly across shards, and
// immediately evicts down to the new budget.
func (c *SpaceCache) SetByteBudget(n int64) {
	per := n / int64(len(c.shards))
	if n > 0 && per == 0 {
		per = 1 // a tiny but non-zero budget must still evict
	}
	for _, sh := range c.shards {
		sh.mu.Lock()
		sh.maxBytes = per
		sh.evictLocked()
		sh.mu.Unlock()
	}
}

// Stats aggregates a snapshot of every shard's counters and attaches
// the per-shard breakdown.
func (c *SpaceCache) Stats() CacheStats {
	st := CacheStats{
		Shards:     make([]ShardStats, len(c.shards)),
		Arithmetic: make(map[string]int),
	}
	for i, sh := range c.shards {
		sh.mu.Lock()
		s := ShardStats{
			Hits:          sh.hits,
			Misses:        sh.misses,
			Evictions:     sh.evictions,
			Invalidations: sh.invalidations,
			Entries:       len(sh.entries),
			BytesCached:   sh.bytes,
		}
		for _, e := range sh.entries {
			// An entry still building has no tier yet.
			if e.done() && e.err == nil && e.val != nil && e.val.Space != nil {
				st.Arithmetic[e.val.Space.Arithmetic()]++
			}
		}
		sh.mu.Unlock()
		st.Shards[i] = s
		st.Hits += s.Hits
		st.Misses += s.Misses
		st.Evictions += s.Evictions
		st.Invalidations += s.Invalidations
		st.Entries += s.Entries
		st.BytesCached += s.BytesCached
		st.Capacity += sh.cap
		st.ByteBudget += sh.maxBytes
	}
	if len(st.Arithmetic) == 0 {
		st.Arithmetic = nil
	}
	return st
}

// Invalidate removes every cached space built against a catalog version
// older than version, across all shards. The fingerprint already embeds
// the version, so stale entries could never be returned — invalidation
// exists to release their memory promptly instead of waiting for LRU
// pressure.
func (c *SpaceCache) Invalidate(version uint64) {
	for {
		v := c.version.Load()
		if version <= v {
			return // someone already broadcast this version (or newer)
		}
		if c.version.CompareAndSwap(v, version) {
			break
		}
	}
	for _, sh := range c.shards {
		sh.mu.Lock()
		sh.invalidateLocked(version)
		sh.mu.Unlock()
	}
}

// entry returns the cache entry for fp, building its space with build
// on a miss; the entry is the handle the structure's overlay lookups go
// through. version is the current catalog schema version; observing a
// newer version than any seen before broadcasts invalidation to every
// shard (an atomic check keeps the no-bump steady state off the other
// shards' locks). Exactly one caller runs build per miss — every other
// concurrent caller for the same fingerprint blocks until that build
// finishes and then shares the result (counted spaces are immutable
// and safe to share). A failed build is not cached: the error is
// returned to everyone waiting and the next call retries.
func (c *SpaceCache) entry(fp Fingerprint, version uint64, build func() (*StructureSpace, error)) (*cacheEntry, bool, error) {
	if version > c.version.Load() {
		c.Invalidate(version)
	}
	sh := c.shardFor(fp)
	sh.mu.Lock()
	sh.invalidateLocked(version)
	if e, ok := sh.entries[fp]; ok {
		sh.hits++
		sh.lru.MoveToFront(e.elem)
		sh.mu.Unlock()
		_, err := e.wait()
		return e, true, err
	}
	e := &cacheEntry{
		flight:   newFlight[*StructureSpace](),
		fp:       fp,
		version:  version,
		overlays: make(map[Fingerprint]*overlayEntry),
	}
	e.elem = sh.lru.PushFront(e)
	sh.entries[fp] = e
	sh.misses++
	sh.evictLocked()
	sh.mu.Unlock()

	_, err := e.run(sh, fp, build, func(space *StructureSpace, err error) {
		switch {
		case !sh.residentLocked(e):
			// Evicted or invalidated while building; nothing to settle.
		case err != nil:
			sh.removeLocked(e) // failed builds are not cached
		default:
			// The size is only known now that the space exists: charge
			// it and shed colder entries if the budget is blown.
			e.bytes = space.SizeBytes()
			sh.bytes += e.bytes
			sh.evictLocked()
		}
	})
	return e, false, err
}

func (sh *cacheShard) invalidateLocked(version uint64) {
	if version <= sh.version {
		return
	}
	sh.version = version
	for _, e := range sh.entries {
		if e.version >= version {
			continue
		}
		if !e.done() {
			continue // still building; its builder removes it on error, LRU handles the rest
		}
		sh.removeLocked(e)
		sh.invalidations++
	}
}

// residentLocked reports whether e still owns its fingerprint's slot
// (it may have been evicted or invalidated since it was found).
func (sh *cacheShard) residentLocked(e *cacheEntry) bool { return sh.entries[e.fp] == e }

// removeLocked drops an entry from the map, the LRU, and the byte
// accounting (in-flight entries carry zero bytes until they complete).
// Its completed overlays go with it and count as overlay
// invalidations; overlays still building count when they complete.
func (sh *cacheShard) removeLocked(e *cacheEntry) {
	delete(sh.entries, e.fp)
	sh.lru.Remove(e.elem)
	sh.bytes -= e.bytes
	for _, o := range e.overlays {
		if o.done() {
			sh.ovInvalidations++
		}
	}
}

// evictLocked trims the LRU while the shard exceeds its entry cap or
// byte-budget slice, skipping entries whose build is still in flight
// (their waiters hold references; evicting a completed space only drops
// the cache's reference — concurrent readers of an evicted space keep
// working on their copy of the pointer). The most-recently-used entry
// is never evicted: a single space bigger than the whole byte budget
// stays cached alone rather than being rebuilt on every request.
func (sh *cacheShard) evictLocked() {
	over := func() bool {
		return len(sh.entries) > sh.cap || (sh.maxBytes > 0 && sh.bytes > sh.maxBytes)
	}
	for elem := sh.lru.Back(); elem != nil && elem != sh.lru.Front() && over(); {
		prev := elem.Prev()
		if e := elem.Value.(*cacheEntry); e.done() {
			sh.removeLocked(e)
			sh.evictions++
		}
		elem = prev
	}
}
