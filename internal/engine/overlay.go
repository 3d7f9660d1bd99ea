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
// what its staleness is judged by: the feedback store that supplied its
// corrections, the catalog statistics version, and the store's epoch.
// Epochs of different stores are unrelated counters, so only overlays
// of the same store are compared.
type overlayKey struct {
	store        uint64
	statsVersion uint64
	epoch        uint64
}

// supersedes reports whether an overlay costed under old is outdated
// by k.
func (k overlayKey) supersedes(old overlayKey) bool {
	return old.store == k.store && (old.statsVersion < k.statsVersion || old.epoch < k.epoch)
}

// overlay returns the cost overlay (an immutable opt.Costing) under key
// over the structure of entry e, building it on a miss with the same
// singleflight runner the structure tier uses: exactly one caller runs
// build, concurrent callers share its result, and a failed or panicking
// build is not cached. A miss on a cached structure is the re-cost in
// place that BenchmarkRecost measures against a cold Prepare. First it
// drops the completed overlays of e that key supersedes. An entry that
// was evicted or invalidated after the caller found it still serves its
// overlays to the callers that hold it, and disappears with them.
func (c *SpaceCache) overlay(e *cacheEntry, key overlayKey, build func() (*opt.Costing, error)) (*opt.Costing, bool, error) {
	c.mu.Lock()
	if c.residentLocked(e) {
		c.dropStaleLocked(e, key)
	}
	if o, ok := e.overlays[key]; ok {
		c.ovHits++
		c.mu.Unlock()
		ov, err := o.wait()
		return ov, true, err
	}
	o := newFlight[*opt.Costing]()
	e.overlays[key] = &o
	c.ovMisses++
	c.mu.Unlock()

	ov, err := o.run(c, e.fp, build, func(_ *opt.Costing, err error) {
		switch {
		case err != nil:
			delete(e.overlays, key) // failed builds are not cached
		case !c.residentLocked(e):
			// The structure was dropped mid-build: the waiters have the
			// overlay, and it goes with the orphaned entry.
			c.ovInvalidations++
		}
	})
	return ov, false, err
}

// dropStaleLocked deletes the completed overlays of e that key
// supersedes. Builds still in flight are left to finish for their
// waiters.
func (c *SpaceCache) dropStaleLocked(e *cacheEntry, key overlayKey) {
	for k, o := range e.overlays {
		if o.done() && key.supersedes(k) {
			delete(e.overlays, k)
			c.ovInvalidations++
		}
	}
}

// dropStaleOverlays drops, in every resident entry, the completed
// overlays that key supersedes — ApplyFeedback's prompt release of the
// costings its new epoch makes unreachable.
func (c *SpaceCache) dropStaleOverlays(key overlayKey) {
	c.mu.Lock()
	for _, e := range c.entries {
		c.dropStaleLocked(e, key)
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
		for _, o := range e.overlays {
			st.Entries++
			if o.done() {
				st.BytesCached += overlayBytes(o.val)
			}
		}
	}
	return st
}
