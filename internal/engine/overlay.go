package engine

import "repro/internal/opt"

// OverlayCacheStats is a point-in-time snapshot of the overlay counters
// of a SpaceCache.
type OverlayCacheStats struct {
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Invalidations uint64 `json:"invalidations"` // stale, or dropped with their structure
	Entries       int    `json:"entries"`
	BytesCached   int64  `json:"bytes_cached"`
}

// overlayKey identifies an overlay within its structure's entry and is
// what its staleness is judged by: the catalog statistics version and
// the epoch of the engine's feedback store. Both only grow, so a key
// read later supersedes one read before a refresh or a fold.
type overlayKey struct {
	statsVersion uint64
	epoch        uint64
}

// supersedes reports whether an overlay costed under old is outdated
// by k.
func (k overlayKey) supersedes(old overlayKey) bool {
	return old.statsVersion < k.statsVersion || old.epoch < k.epoch
}

// overlay returns the cost overlay (an immutable opt.Costing) over the
// structure of entry e for key, and the key it was costed under. The
// entry keeps one overlay slot. A key that does not supersede the
// slot's hits it, and an older one is served the newer overlay and its
// key: it was read before a statistics refresh or an ApplyFeedback that
// a later lookup has seen. A key that supersedes the slot's misses, and
// its overlay replaces the slot, built with the structure tier's
// singleflight runner: one caller builds, concurrent callers share the
// result, and a failed or panicking build is not cached. A miss on a
// cached structure is the re-cost in place BenchmarkRecost measures. An
// entry evicted or invalidated after the caller found it still serves
// its overlay to the callers that hold it, and disappears with them.
func (c *SpaceCache) overlay(e *cacheEntry, key overlayKey, build func() (*opt.Costing, error)) (*opt.Costing, overlayKey, bool, error) {
	c.mu.Lock()
	if o := e.overlay; o != nil && !key.supersedes(e.okey) {
		key = e.okey
		c.ovHits++
		c.mu.Unlock()
		ov, err := o.wait()
		return ov, key, true, err
	}
	if e.overlay != nil && e.overlay.done() && c.residentLocked(e) {
		c.ovInvalidations++ // superseded; a removed entry counted it already
	}
	o := newFlight[*opt.Costing]()
	e.overlay, e.okey = &o, key
	c.ovMisses++
	c.mu.Unlock()

	ov, err := o.run(c, e.fp, build, func(_ *opt.Costing, err error) {
		switch {
		case err != nil:
			if e.overlay == &o {
				e.overlay = nil // failed builds are not cached
			}
		case e.overlay != &o || !c.residentLocked(e):
			// Replaced by a newer key's overlay, or its structure was
			// dropped, mid-build: the waiters have it, and it goes
			// with them.
			c.ovInvalidations++
		}
	})
	return ov, key, false, err
}

// dropStaleOverlays drops, in every resident entry, a completed overlay
// that key supersedes — ApplyFeedback's prompt release of the costings
// its new epoch makes unreachable. A build still in flight is left to
// finish for its waiters; the next lookup replaces it.
func (c *SpaceCache) dropStaleOverlays(key overlayKey) {
	c.mu.Lock()
	for _, e := range c.entries {
		if o := e.overlay; o != nil && o.done() && key.supersedes(e.okey) {
			e.overlay = nil
			c.ovInvalidations++
		}
	}
	c.mu.Unlock()
}

// OverlayView is a read-only view of the overlay counters a SpaceCache
// keeps.
type OverlayView struct{ cache *SpaceCache }

// Stats returns a snapshot of the overlay counters. Entries and
// BytesCached cover the overlays of resident structures only; overlay
// bytes are reported apart from, and never charged to, the structure
// byte budget.
func (v OverlayView) Stats() OverlayCacheStats {
	c := v.cache
	c.mu.Lock()
	defer c.mu.Unlock()
	st := OverlayCacheStats{Hits: c.ovHits, Misses: c.ovMisses, Invalidations: c.ovInvalidations}
	for _, e := range c.entries {
		if o := e.overlay; o != nil {
			st.Entries++
			if o.done() {
				st.BytesCached += overlayBytes(o.val)
			}
		}
	}
	return st
}
