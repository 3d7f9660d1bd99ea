package engine

import (
	"errors"
	"testing"

	"repro/internal/opt"
)

// TestOverlaySlotKeepsNewestKey: an entry's one overlay slot holds the
// newest key's overlay. An older key is served it with its key, a newer
// key replaces it, and dropStaleOverlays drops it only when superseded.
func TestOverlaySlotKeepsNewestKey(t *testing.T) {
	c := newSpaceCache(1, DefaultCacheBytes)
	e, _, err := c.entry(fp(1), 1, func() (*StructureSpace, error) { return &StructureSpace{}, nil })
	if err != nil {
		t.Fatal(err)
	}
	lookup := func(k overlayKey) (*opt.Costing, overlayKey, bool) {
		t.Helper()
		ov, got, cached, err := c.overlay(e, k, func() (*opt.Costing, error) { return &opt.Costing{}, nil })
		if err != nil {
			t.Fatal(err)
		}
		return ov, got, cached
	}
	check := func(want OverlayCacheStats) {
		t.Helper()
		st := OverlayView{c}.Stats()
		st.BytesCached = 0
		if st != want {
			t.Errorf("overlay stats %+v, want %+v", st, want)
		}
	}

	k12 := overlayKey{statsVersion: 1, epoch: 2}
	newest, _, _ := lookup(k12)
	for _, older := range []overlayKey{k12, {statsVersion: 1, epoch: 1}, {statsVersion: 0, epoch: 2}, {}} {
		ov, got, cached := lookup(older)
		if ov != newest || got != k12 || !cached {
			t.Errorf("lookup %+v: served key %+v, cached %v, same overlay %v; want the slot's overlay under %+v", older, got, cached, ov == newest, k12)
		}
	}
	check(OverlayCacheStats{Hits: 4, Misses: 1, Entries: 1})

	// A newer key replaces the slot; the superseded overlay counts as
	// invalidated. So does one newer in statistics but older in epoch.
	k13 := overlayKey{statsVersion: 1, epoch: 3}
	if ov, got, cached := lookup(k13); ov == newest || got != k13 || cached {
		t.Errorf("newer key %+v: served key %+v, cached %v; want its own build", k13, got, cached)
	}
	k20 := overlayKey{statsVersion: 2, epoch: 0}
	if _, got, cached := lookup(k20); got != k20 || cached {
		t.Errorf("key %+v: served key %+v, cached %v; want its own build", k20, got, cached)
	}
	check(OverlayCacheStats{Hits: 4, Misses: 3, Invalidations: 2, Entries: 1})

	// The sweep leaves a slot its key does not supersede and drops one
	// it does.
	c.dropStaleOverlays(k20)
	check(OverlayCacheStats{Hits: 4, Misses: 3, Invalidations: 2, Entries: 1})
	c.dropStaleOverlays(overlayKey{statsVersion: 2, epoch: 1})
	check(OverlayCacheStats{Hits: 4, Misses: 3, Invalidations: 3})

	// A failed build leaves the slot empty, and an older key then gets
	// a build of its own.
	boom := errors.New("boom")
	if _, _, _, err := c.overlay(e, overlayKey{statsVersion: 3}, func() (*opt.Costing, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if _, got, cached := lookup(k12); got != k12 || cached {
		t.Errorf("after a failed build: served key %+v, cached %v; want a build under %+v", got, cached, k12)
	}
	check(OverlayCacheStats{Hits: 4, Misses: 5, Invalidations: 3, Entries: 1})
}

// TestOlderKeyRecordsUnderServedEpoch: a Prepare that read the feedback
// epoch before an ApplyFeedback, and looks its overlay up after a newer
// Prepare re-costed the structure, is served the newer overlay. It then
// records its executions under the served epoch, which the store
// accepts; under the epoch it read, the store would drop them.
func TestOlderKeyRecordsUnderServedEpoch(t *testing.T) {
	e := New(aliasDB(t))
	s := e.Session()
	p0 := mustPrepare(t, s, aliasQuery)
	if _, err := p0.Execute(p0.OptimalPlan()); err != nil {
		t.Fatal(err)
	}
	epoch0, view0 := e.fb.EpochView()
	stale := overlayKey{statsVersion: e.db.Catalog().StatsVersion(), epoch: epoch0}
	if folded, epoch := e.ApplyFeedback(); folded == 0 || epoch != epoch0+1 {
		t.Fatalf("ApplyFeedback folded %d at epoch %d", folded, epoch)
	}
	p1 := mustPrepare(t, s, aliasQuery)
	if p1.OverlayCached || p1.epoch != epoch0+1 {
		t.Fatalf("the Prepare after ApplyFeedback: overlay_cached %v at epoch %d, want a re-cost at %d", p1.OverlayCached, p1.epoch, epoch0+1)
	}

	ent, _, ok := e.cache.text(textKey{text: aliasQuery, rules: s.opts.Rules, schemaVersion: e.db.Catalog().SchemaVersion()})
	if !ok {
		t.Fatal("the text lost its alias")
	}
	p, err := e.costed(ent, stale, view0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Opt != p1.Opt || !p.OverlayCached || p.epoch != p1.epoch {
		t.Fatalf("older key: epoch %d, overlay_cached %v, newer overlay %v; want the newer overlay at epoch %d", p.epoch, p.OverlayCached, p.Opt == p1.Opt, p1.epoch)
	}
	before := e.Feedback().Snapshot().Recorded
	if _, err := p.Execute(p.OptimalPlan()); err != nil {
		t.Fatal(err)
	}
	if after := e.Feedback().Snapshot().Recorded; after == before {
		t.Error("the store dropped the executions of a statement served the current epoch's overlay")
	}
}
