package engine

import (
	"math/big"

	"repro/internal/opt"
)

// CostOverlay is the cheap, cost-bearing layer over a cached
// StructureSpace: the per-group cardinalities and per-operator local
// costs (opt.Costing wraps cost.Tables), the optimal plan, and its rank
// in the counted space. One overlay is immutable after build and safe
// for any number of concurrent readers; it is cached in its structure's
// cache entry.
//
// A structure hit with a stale overlay re-costs in place: the memo,
// counts, and unrank tables are reused and only this layer is rebuilt —
// the operation BenchmarkRecost measures against a cold Prepare.
type CostOverlay struct {
	Fingerprint Fingerprint
	Costing     *opt.Costing

	// Epoch is the feedback epoch whose correction view this overlay
	// was costed with. Executions tag their recorded observations with
	// it, so ratios measured against this overlay's estimates are never
	// folded on top of corrections from a newer epoch.
	Epoch uint64

	// OptimalRank is the plan number of Costing.Best in the structure's
	// counted space — precomputed because every /prepare, /explain, and
	// re-optimized /execute asks for it. Callers must not mutate it.
	OptimalRank *big.Int
}

// OverlayCacheStats is a point-in-time snapshot of the overlay counters
// of a SpaceCache.
type OverlayCacheStats struct {
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Invalidations uint64 `json:"invalidations"` // stale, or dropped with their structure
	Entries       int    `json:"entries"`
	BytesCached   int64  `json:"bytes_cached"`
}

// overlayKey is what an overlay's staleness is judged by: the feedback
// store that supplied its corrections, the catalog statistics version,
// and the store's epoch. Epochs of different stores are unrelated
// counters, so only overlays of the same store are compared.
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

// overlayEntry is one overlay fingerprint's slot in a structure entry.
type overlayEntry struct {
	flight[*CostOverlay]
	key overlayKey
}

// overlay returns the cost overlay ofp over the structure of entry e,
// building it on a miss with the same singleflight runner the structure
// tier uses: exactly one caller runs build, concurrent callers share
// its result, and a failed or panicking build is not cached. First it
// drops the completed overlays of e that key supersedes. An entry that
// was evicted or invalidated after the caller found it still serves its
// overlays to the callers that hold it, and disappears with them.
func (c *SpaceCache) overlay(e *cacheEntry, ofp Fingerprint, key overlayKey, build func() (*CostOverlay, error)) (*CostOverlay, bool, error) {
	c.mu.Lock()
	if c.residentLocked(e) {
		c.dropStaleLocked(e, key)
	}
	if o, ok := e.overlays[ofp]; ok {
		c.ovHits++
		c.mu.Unlock()
		ov, err := o.wait()
		return ov, true, err
	}
	o := &overlayEntry{flight: newFlight[*CostOverlay](), key: key}
	e.overlays[ofp] = o
	c.ovMisses++
	c.mu.Unlock()

	ov, err := o.run(c, ofp, build, func(_ *CostOverlay, err error) {
		switch {
		case err != nil:
			delete(e.overlays, ofp) // failed builds are not cached
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
	for fp, o := range e.overlays {
		if o.done() && key.supersedes(o.key) {
			delete(e.overlays, fp)
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
				st.BytesCached += o.val.SizeBytes()
			}
		}
	}
	return st
}
