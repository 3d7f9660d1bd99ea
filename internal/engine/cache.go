package engine

import (
	"container/list"
	"fmt"
	"math/big"
	"strings"
	"sync"

	"repro/internal/opt"
	"repro/internal/rules"
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

// maxAliases is the number of statement texts one entry answers without
// parsing them (see SpaceCache.text); a further text replaces the
// oldest. Whitespace, comment and USEPLAN variants of one structure
// beyond it keep the parse path.
const maxAliases = 4

// CacheStats is a point-in-time snapshot of a SpaceCache's counters.
type CacheStats struct {
	Hits          uint64 `json:"hits"`
	TextHits      uint64 `json:"text_hits"` // the hits answered by a statement-text alias, unparsed
	Misses        uint64 `json:"misses"`
	Evictions     uint64 `json:"evictions"`     // LRU pressure (entry cap or byte budget)
	Invalidations uint64 `json:"invalidations"` // catalog schema-version bumps
	Entries       int    `json:"entries"`
	Aliases       int    `json:"aliases"` // statement texts resident entries answer
	Capacity      int    `json:"capacity"`
	BytesCached   int64  `json:"bytes_cached"` // estimated bytes pinned by ready entries, alias texts included
	ByteBudget    int64  `json:"byte_budget"`  // 0 = unlimited

	// Arithmetic counts resident spaces by the tier serving them
	// ("uint64", "wide"), so /stats shows which engine each
	// cached query landed on.
	Arithmetic map[string]int `json:"arithmetic,omitempty"`
}

// flight is one singleflight build slot, the mechanism both cache tiers
// share. It is published under the cache lock before its build runs, so
// concurrent callers for the same key find it and wait on ready
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
// panic alike, then calls settle with the cache lock held so the tier
// can charge, keep, or drop the result. The completion must not be
// skipped: a slot whose ready channel never closes would wedge every
// current and future waiter on its fingerprint (net/http recovers
// handler panics, so the server would otherwise keep running with a
// poisoned slot). A panic fails the slot for every waiter and then
// propagates to this caller.
func (f *flight[T]) run(c *SpaceCache, fp Fingerprint, build func() (T, error), settle func(T, error)) (val T, err error) {
	finished := false
	defer func() {
		if !finished {
			err = fmt.Errorf("engine: build panicked for fingerprint %s", fp)
		}
		c.mu.Lock()
		f.val, f.err = val, err
		close(f.ready)
		settle(val, err)
		c.mu.Unlock()
	}()
	val, err = build()
	finished = true
	return val, err
}

// cacheEntry is one structure fingerprint's slot. Its overlays map
// holds the cost overlays built over the structure, keyed by overlayKey,
// and aliases the statement texts that resolve to it, oldest first;
// both are guarded by the cache lock and live exactly as long as the
// entry.
type cacheEntry struct {
	flight[*StructureSpace]
	fp       Fingerprint
	version  uint64 // catalog schema version the space was built against
	bytes    int64  // estimated structure and alias size, set when the build completes
	elem     *list.Element
	overlays map[overlayKey]*flight[*opt.Costing]
	aliases  []textKey
}

// textKey is a statement text with everything else its structure
// fingerprint encodes: the rule configuration, the catalog identity and
// its schema version. Equal keys parse to one statement and fingerprint
// alike, so a key names one entry.
type textKey struct {
	text          string
	rules         rules.Config
	catalogID     uint64
	schemaVersion uint64
}

// textAlias is what a statement text resolved to: its entry and the
// OPTION (USEPLAN n) number it carries, validated against the entry's
// space (nil when it has none). The number is shared by every Prepared
// of the text and must not be mutated.
type textAlias struct {
	e       *cacheEntry
	usePlan *big.Int
}

// SpaceCache is a concurrency-safe LRU of counted plan spaces keyed by
// query fingerprint. One mutex guards everything: the entry map, the
// statement-text aliases, the exact LRU list, the byte accounting, the
// counters, and the overlay map inside each entry. Concurrent misses
// for one fingerprint collapse into a single build (the lock is never
// held while building), the least-recently-used spaces beyond the entry
// cap or byte budget are evicted, and every stale space is dropped the
// moment a newer catalog schema version is observed
// (table/column/index changes — a statistics
// refresh only invalidates cost overlays, never structures). Each entry
// also carries the cost overlays of its structure (see overlay.go), so
// an overlay never outlives, and never pins, an evicted structure. A
// single cache may be shared by any number of Engines and Sessions.
//
// Beside the fingerprint map, texts maps a statement text a Prepare has
// resolved to its entry, so a repeated text skips parsing, canonical
// rendering and hashing. An entry holds at most maxAliases texts, and
// they go with it.
type SpaceCache struct {
	mu       sync.Mutex
	cap      int
	maxBytes int64 // 0 = unlimited
	bytes    int64 // estimated structure and alias bytes of ready entries
	entries  map[Fingerprint]*cacheEntry
	texts    map[textKey]textAlias
	lru      *list.List // front = most recently used; values are *cacheEntry
	version  uint64     // newest catalog schema version observed

	hits, textHits, misses, evictions, invalidations uint64
	ovHits, ovMisses, ovInvalidations                uint64 // overlay lookups in the entries
}

// NewSpaceCache returns a cache holding at most capacity counted spaces
// and at most DefaultCacheBytes of estimated space memory; capacities
// below one are clamped to one. Adjust or disable the byte budget with
// SetByteBudget.
func NewSpaceCache(capacity int) *SpaceCache {
	return &SpaceCache{
		cap:      max(capacity, 1),
		maxBytes: DefaultCacheBytes,
		entries:  make(map[Fingerprint]*cacheEntry),
		texts:    make(map[textKey]textAlias),
		lru:      list.New(),
	}
}

// SetByteBudget replaces the cache's byte budget (0 disables byte-based
// eviction entirely) and immediately evicts down to the new budget.
func (c *SpaceCache) SetByteBudget(n int64) {
	c.mu.Lock()
	c.maxBytes = n
	c.evictLocked()
	c.mu.Unlock()
}

// Stats returns a snapshot of the cache's counters.
func (c *SpaceCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := CacheStats{
		Hits:          c.hits,
		TextHits:      c.textHits,
		Misses:        c.misses,
		Evictions:     c.evictions,
		Invalidations: c.invalidations,
		Entries:       len(c.entries),
		Aliases:       len(c.texts),
		Capacity:      c.cap,
		BytesCached:   c.bytes,
		ByteBudget:    c.maxBytes,
	}
	for _, e := range c.entries {
		// An entry still building has no tier yet.
		if e.done() && e.err == nil && e.val != nil && e.val.Space != nil {
			if st.Arithmetic == nil {
				st.Arithmetic = make(map[string]int)
			}
			st.Arithmetic[e.val.Space.Arithmetic()]++
		}
	}
	return st
}

// entry returns the cache entry for fp, building its space with build
// on a miss; the entry is the handle the structure's overlay lookups go
// through. version is the current catalog schema version; observing a
// newer version than any seen before invalidates every older space.
// Exactly one caller runs build per miss — every other concurrent
// caller for the same fingerprint blocks until that build finishes and
// then shares the result (counted spaces are immutable and safe to
// share). A failed build is not cached: the error is returned to
// everyone waiting and the next call retries.
func (c *SpaceCache) entry(fp Fingerprint, version uint64, build func() (*StructureSpace, error)) (*cacheEntry, bool, error) {
	c.mu.Lock()
	c.invalidateLocked(version)
	if e, ok := c.entries[fp]; ok {
		c.hits++
		c.lru.MoveToFront(e.elem)
		c.mu.Unlock()
		_, err := e.wait()
		return e, true, err
	}
	e := &cacheEntry{
		flight:   newFlight[*StructureSpace](),
		fp:       fp,
		version:  version,
		overlays: make(map[overlayKey]*flight[*opt.Costing]),
	}
	e.elem = c.lru.PushFront(e)
	c.entries[fp] = e
	c.misses++
	c.evictLocked()
	c.mu.Unlock()

	_, err := e.run(c, fp, build, func(space *StructureSpace, err error) {
		switch {
		case !c.residentLocked(e):
			// Evicted or invalidated while building; nothing to settle.
		case err != nil:
			c.removeLocked(e) // failed builds are not cached
		default:
			// The size is only known now that the space exists: charge
			// it and shed colder entries if the budget is blown.
			e.bytes = space.SizeBytes()
			c.bytes += e.bytes
			c.evictLocked()
		}
	})
	return e, false, err
}

// text returns the entry and USEPLAN number statement text k resolved
// to when it was last prepared, while that entry is resident. A hit
// counts as a structure hit and as a text hit. Only entries whose build
// succeeded hold aliases, so a hit never waits.
func (c *SpaceCache) text(k textKey) (*cacheEntry, *big.Int, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	a, ok := c.texts[k]
	if !ok {
		return nil, nil, false
	}
	c.hits++
	c.textHits++
	c.lru.MoveToFront(a.e.elem)
	return a.e, a.usePlan, true
}

// alias records that statement text k resolved to entry e with plan
// number usePlan, for text to answer next time. Only a resident entry
// whose build succeeded takes aliases; one already holding maxAliases
// drops its oldest. The alias's bytes are charged to the entry.
func (c *SpaceCache) alias(e *cacheEntry, k textKey, usePlan *big.Int) {
	k.text = strings.Clone(k.text) // the caller's string may share a larger buffer
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.residentLocked(e) || !e.done() || e.err != nil {
		return
	}
	if _, ok := c.texts[k]; ok {
		return // a concurrent Prepare of the same text recorded it
	}
	if len(e.aliases) == maxAliases {
		old := e.aliases[0]
		delete(c.texts, old)
		e.bytes -= aliasBytes(old)
		c.bytes -= aliasBytes(old)
		e.aliases = append(e.aliases[:0], e.aliases[1:]...)
	}
	e.aliases = append(e.aliases, k)
	c.texts[k] = textAlias{e: e, usePlan: usePlan}
	e.bytes += aliasBytes(k)
	c.bytes += aliasBytes(k)
	c.evictLocked()
}

// invalidateLocked removes every cached space built against a catalog
// version older than version. The fingerprint already embeds the
// version, so stale entries could never be returned — invalidation
// exists to release their memory promptly instead of waiting for LRU
// pressure.
func (c *SpaceCache) invalidateLocked(version uint64) {
	if version <= c.version {
		return
	}
	c.version = version
	for _, e := range c.entries {
		if e.version >= version {
			continue
		}
		if !e.done() {
			continue // still building; its builder removes it on error, LRU handles the rest
		}
		c.removeLocked(e)
		c.invalidations++
	}
}

// residentLocked reports whether e still owns its fingerprint's slot
// (it may have been evicted or invalidated since it was found).
func (c *SpaceCache) residentLocked(e *cacheEntry) bool { return c.entries[e.fp] == e }

// removeLocked drops an entry from the map, the LRU, and the byte
// accounting (in-flight entries carry zero bytes until they complete).
// Its aliases go with it. Its completed overlays go too and count as
// overlay invalidations; overlays still building count when they
// complete.
func (c *SpaceCache) removeLocked(e *cacheEntry) {
	delete(c.entries, e.fp)
	c.lru.Remove(e.elem)
	c.bytes -= e.bytes
	for _, k := range e.aliases {
		delete(c.texts, k)
	}
	for _, o := range e.overlays {
		if o.done() {
			c.ovInvalidations++
		}
	}
}

// evictLocked trims the LRU while the cache exceeds its entry cap or
// byte budget, skipping entries whose build is still in flight (their
// waiters hold references; evicting a completed space only drops the
// cache's reference — concurrent readers of an evicted space keep
// working on their copy of the pointer). The most-recently-used entry
// is never evicted: a single space bigger than the whole byte budget
// stays cached alone rather than being rebuilt on every request.
func (c *SpaceCache) evictLocked() {
	over := func() bool {
		return len(c.entries) > c.cap || (c.maxBytes > 0 && c.bytes > c.maxBytes)
	}
	for elem := c.lru.Back(); elem != nil && elem != c.lru.Front() && over(); {
		prev := elem.Prev()
		if e := elem.Value.(*cacheEntry); e.done() {
			c.removeLocked(e)
			c.evictions++
		}
		elem = prev
	}
}
