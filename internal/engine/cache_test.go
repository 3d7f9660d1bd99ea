package engine

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/opt"
)

func fp(b byte) Fingerprint {
	var f Fingerprint
	f[0] = b
	return f
}

// tier drives one of the cache's two singleflight tiers through a
// common shape, so one test body covers both: get looks up slot b and
// runs build on a miss; stats reads the tier's counters. The overlay
// tier's slot is the one of a resident structure's entry, looked up
// under overlayKey{epoch: b}.
type tier struct {
	name  string
	get   func(c *SpaceCache, b byte, build func() error) (any, bool, error)
	stats func(c *SpaceCache) (hits, misses uint64, entries int)
}

var tiers = []tier{
	{
		name: "structure",
		get: func(c *SpaceCache, b byte, build func() error) (any, bool, error) {
			e, cached, err := c.entry(fp(b), 1, func() (*StructureSpace, error) {
				if err := build(); err != nil {
					return nil, err
				}
				return &StructureSpace{}, nil
			})
			return e.val, cached, err
		},
		stats: func(c *SpaceCache) (uint64, uint64, int) {
			st := c.Stats()
			return st.Hits, st.Misses, st.Entries
		},
	},
	{
		name: "overlay",
		get: func(c *SpaceCache, b byte, build func() error) (any, bool, error) {
			e, _, err := c.entry(fp(0), 1, func() (*StructureSpace, error) { return &StructureSpace{}, nil })
			if err != nil {
				return nil, false, err
			}
			ov, _, cached, err := c.overlay(e, overlayKey{epoch: uint64(b)}, func() (*opt.Costing, error) {
				if err := build(); err != nil {
					return nil, err
				}
				return &opt.Costing{}, nil
			})
			return ov, cached, err
		},
		stats: func(c *SpaceCache) (uint64, uint64, int) {
			st := OverlayView{c}.Stats()
			return st.Hits, st.Misses, st.Entries
		},
	},
}

// TestCacheSingleflight: concurrent lookups of one fingerprint run the
// builder exactly once and share the result, in both tiers.
func TestCacheSingleflight(t *testing.T) {
	for _, tr := range tiers {
		t.Run(tr.name, func(t *testing.T) {
			c := newSpaceCache(4, DefaultCacheBytes)
			var builds atomic.Int64
			const goroutines = 32

			var wg sync.WaitGroup
			vals := make([]any, goroutines)
			for i := 0; i < goroutines; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					v, _, err := tr.get(c, 1, func() error {
						builds.Add(1)
						time.Sleep(20 * time.Millisecond) // widen the race window
						return nil
					})
					if err != nil {
						t.Error(err)
						return
					}
					vals[i] = v
				}(i)
			}
			wg.Wait()

			if n := builds.Load(); n != 1 {
				t.Fatalf("builder ran %d times for one fingerprint, want 1", n)
			}
			for i, v := range vals {
				if v != vals[0] {
					t.Fatalf("goroutine %d got a different value", i)
				}
			}
			if hits, misses, _ := tr.stats(c); misses != 1 || hits != goroutines-1 {
				t.Errorf("hits/misses = %d/%d, want %d/1", hits, misses, goroutines-1)
			}
		})
	}
}

// TestCacheLRUEviction: beyond the capacity the least-recently-used
// space is dropped; touching an entry protects it.
func TestCacheLRUEviction(t *testing.T) {
	c := newSpaceCache(2, DefaultCacheBytes)
	get := func(b byte) (*StructureSpace, bool) {
		t.Helper()
		e, cached, err := c.entry(fp(b), 1, func() (*StructureSpace, error) {
			return &StructureSpace{}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return e.val, cached
	}

	get(1)
	get(2)
	get(3) // evicts 1
	if st := c.Stats(); st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("after third insert: %+v, want 2 entries, 1 eviction", st)
	}
	if _, cached := get(1); cached {
		t.Error("fingerprint 1 should have been evicted")
	}
	// Reinserting 1 evicted 2 (the LRU of [3, 2]); 3 must survive.
	if _, cached := get(3); !cached {
		t.Error("fingerprint 3 should still be resident")
	}
	// Touch 1, insert 4: the untouched 3 goes, 1 stays.
	get(1)
	get(4)
	if _, cached := get(1); !cached {
		t.Error("recently used fingerprint 1 was evicted")
	}
}

// TestCacheErrorNotCached: a failed build is reported to the caller and
// retried on the next request rather than cached, in both tiers.
func TestCacheErrorNotCached(t *testing.T) {
	for _, tr := range tiers {
		t.Run(tr.name, func(t *testing.T) {
			c := newSpaceCache(2, DefaultCacheBytes)
			boom := errors.New("build failed")
			var builds int
			_, _, err := tr.get(c, 9, func() error {
				builds++
				return boom
			})
			if !errors.Is(err, boom) {
				t.Fatalf("err = %v, want %v", err, boom)
			}
			if _, _, entries := tr.stats(c); entries != 0 {
				t.Fatalf("failed build left %d entries", entries)
			}
			_, cached, err := tr.get(c, 9, func() error {
				builds++
				return nil
			})
			if err != nil || cached {
				t.Fatalf("retry: cached=%v err=%v, want a fresh build", cached, err)
			}
			if builds != 2 {
				t.Errorf("builds = %d, want 2 (error must not be cached)", builds)
			}
		})
	}
}

// TestCacheInvalidation: observing a newer catalog version drops every
// space built against an older one.
func TestCacheInvalidation(t *testing.T) {
	c := newSpaceCache(8, DefaultCacheBytes)
	build := func() (*StructureSpace, error) { return &StructureSpace{}, nil }
	if _, _, err := c.entry(fp(1), 1, build); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.entry(fp(2), 1, build); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.entry(fp(3), 2, build); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Invalidations != 2 {
		t.Errorf("invalidations = %d, want 2", st.Invalidations)
	}
	if st.Entries != 1 {
		t.Errorf("entries = %d, want only the version-2 space", st.Entries)
	}
	// A lookup invalidates before it builds, so one whose build fails
	// still drops every older space and leaves nothing behind.
	fail := func() (*StructureSpace, error) { return nil, errors.New("boom") }
	c.entry(fp(4), 3, fail)
	if st := c.Stats(); st.Entries != 0 || st.Invalidations != 3 {
		t.Errorf("after a version-3 lookup: %+v", st)
	}
	// Stale versions are a no-op.
	c.entry(fp(5), 1, fail)
	if st := c.Stats(); st.Invalidations != 3 {
		t.Errorf("stale version bumped counters: %+v", st)
	}
}

// TestCachePanicDoesNotWedge: a panicking build must fail the slot —
// closing ready for any waiters and freeing the slot — instead of
// leaving every future caller of the fingerprint blocked forever, in
// both tiers.
func TestCachePanicDoesNotWedge(t *testing.T) {
	for _, tr := range tiers {
		t.Run(tr.name, func(t *testing.T) {
			c := newSpaceCache(2, DefaultCacheBytes)
			release := make(chan struct{})
			waiterErr := make(chan error, 1)
			go func() {
				// Arrive once the panicking build is in flight. Almost
				// always this call blocks on the in-flight slot and must
				// receive its error; if scheduling delays it past the
				// cleanup it builds fresh and succeeds — either way it
				// must return promptly rather than wedge.
				<-release
				_, _, err := tr.get(c, 5, func() error { return nil })
				waiterErr <- err
			}()
			func() {
				defer func() {
					if recover() == nil {
						t.Error("panic did not propagate to the building caller")
					}
				}()
				tr.get(c, 5, func() error {
					close(release) // the waiter may now pile on
					time.Sleep(50 * time.Millisecond)
					panic("build exploded")
				})
			}()
			select {
			case <-waiterErr: // returned — with the build error or a fresh build
			case <-time.After(5 * time.Second):
				t.Fatal("waiter wedged on a panicked build")
			}
			// The slot is free: the next call rebuilds successfully.
			if _, _, err := tr.get(c, 5, func() error { return nil }); err != nil {
				t.Fatalf("rebuild after panic failed: %v", err)
			}
			if _, _, entries := tr.stats(c); entries != 1 {
				t.Errorf("entries = %d after recovery, want 1", entries)
			}
		})
	}
}

// TestOverlayBuildOutlivesEvictedStructure: a structure evicted while
// one of its overlays is being built hands the overlay to the build's
// waiters, and neither the structure nor the overlay is put back in
// the cache.
func TestOverlayBuildOutlivesEvictedStructure(t *testing.T) {
	c := newSpaceCache(1, DefaultCacheBytes)
	newStructure := func() (*StructureSpace, error) { return &StructureSpace{}, nil }
	e, _, err := c.entry(fp(1), 1, newStructure)
	if err != nil {
		t.Fatal(err)
	}
	want := &opt.Costing{}
	started, release := make(chan struct{}), make(chan struct{})
	got := make(chan *opt.Costing, 2) // the builder and one waiter
	lookup := func(build func() (*opt.Costing, error)) {
		ov, _, _, err := c.overlay(e, overlayKey{epoch: 9}, build)
		if err != nil {
			t.Error(err)
		}
		got <- ov
	}
	go lookup(func() (*opt.Costing, error) {
		close(started)
		<-release
		return want, nil
	})
	<-started
	go lookup(func() (*opt.Costing, error) {
		t.Error("a waiter rebuilt an overlay already in flight")
		return nil, errors.New("second build")
	})
	overlays := OverlayView{c}
	for deadline := time.Now().Add(5 * time.Second); overlays.Stats().Hits == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("waiter never joined the in-flight overlay build")
		}
	}

	// A second structure evicts the first (capacity one) mid-build.
	if _, _, err := c.entry(fp(2), 1, newStructure); err != nil {
		t.Fatal(err)
	}
	close(release)
	for i := 0; i < 2; i++ {
		if ov := <-got; ov != want {
			t.Errorf("lookup %d got %p, want the built overlay %p", i, ov, want)
		}
	}
	if st := overlays.Stats(); st.Entries != 0 || st.Invalidations != 1 {
		t.Errorf("overlay stats = %+v, want 0 entries and 1 invalidation", st)
	}
	if _, cached, _ := c.entry(fp(1), 1, newStructure); cached {
		t.Error("the evicted structure was put back in the cache")
	}
}

// TestCacheByteBudgetEviction: eviction is driven by estimated space
// bytes, not just entry count. Entry sizes are controlled through the
// canonical SQL length (SizeBytes = fixed overhead + len(Canonical) for
// a space-less StructureSpace).
func TestCacheByteBudgetEviction(t *testing.T) {
	one := (&StructureSpace{}).SizeBytes() // size of a zero-canonical entry
	c := newSpaceCache(100, 2*one+one/2)   // room for two, not three
	entry := func(b byte, canonLen int) (*StructureSpace, bool) {
		t.Helper()
		e, cached, err := c.entry(fp(b), 1, func() (*StructureSpace, error) {
			return &StructureSpace{Canonical: string(make([]byte, canonLen))}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return e.val, cached
	}
	entry(1, 0)
	entry(2, 0)
	if st := c.Stats(); st.Entries != 2 || st.BytesCached != 2*one || st.Evictions != 0 {
		t.Fatalf("two entries under budget: %+v", st)
	}
	entry(3, 0) // blows the budget: LRU (1) goes
	st := c.Stats()
	if st.Entries != 2 || st.BytesCached != 2*one || st.Evictions != 1 {
		t.Fatalf("after byte eviction: %+v", st)
	}
	if _, cached := entry(1, 0); cached {
		t.Error("fingerprint 1 should have been byte-evicted")
	}

	// A single entry bigger than the whole budget stays resident (the
	// MRU entry is never evicted), shedding everything else.
	entry(4, int(3*one))
	st = c.Stats()
	if st.Entries != 1 {
		t.Fatalf("oversized entry handling: %+v", st)
	}
	if _, cached := entry(4, int(3*one)); !cached {
		t.Error("oversized MRU entry was evicted; it should stay cached alone")
	}

	// A budget of 0 disables byte-based eviction entirely.
	c = newSpaceCache(100, 0)
	entry(5, int(3*one))
	entry(6, int(3*one))
	entry(7, 0)
	if st := c.Stats(); st.Entries != 3 || st.Evictions != 0 {
		t.Errorf("byte eviction ran with budget disabled: %+v", st)
	}
}

// TestCacheBytesAccounting: invalidation and failed builds release
// their bytes; in-flight entries carry none.
func TestCacheBytesAccounting(t *testing.T) {
	c := newSpaceCache(8, DefaultCacheBytes)
	for b := byte(1); b <= 3; b++ {
		c.entry(fp(b), 1, func() (*StructureSpace, error) { return &StructureSpace{}, nil })
	}
	if st := c.Stats(); st.BytesCached <= 0 {
		t.Fatalf("no bytes accounted: %+v", st)
	}
	// A newer schema version releases the stale entries' bytes (the
	// lookup's own build fails, so it adds none).
	c.entry(fp(4), 2, func() (*StructureSpace, error) { return nil, errors.New("boom") })
	if st := c.Stats(); st.BytesCached != 0 {
		t.Errorf("bytes not released on invalidation: %+v", st)
	}
	c.entry(fp(9), 2, func() (*StructureSpace, error) { return nil, errors.New("boom") })
	if st := c.Stats(); st.BytesCached != 0 {
		t.Errorf("failed build left bytes behind: %+v", st)
	}
}

// TestCacheExactLRUAtAnyGOMAXPROCS: the cache's capacity and eviction
// order do not depend on the core count. At GOMAXPROCS 8 an 8-entry
// cache holds 8 distinct fingerprints without evicting any, and the
// reported capacity is the requested one for every GOMAXPROCS.
func TestCacheExactLRUAtAnyGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(8)
	c := newSpaceCache(8, DefaultCacheBytes)
	get := func(i int) bool {
		t.Helper()
		f := structureFingerprintOf(fmt.Appendf(nil, "SELECT %d", i), opt.DefaultOptions().Rules, 1, 1)
		_, cached, err := c.entry(f, 1, func() (*StructureSpace, error) { return &StructureSpace{}, nil })
		if err != nil {
			t.Fatal(err)
		}
		return cached
	}
	for i := 0; i < 8; i++ {
		get(i)
	}
	if st := c.Stats(); st.Entries != 8 || st.Evictions != 0 {
		t.Errorf("8 fingerprints in an 8-entry cache: %d entries, %d evictions; want 8, 0", st.Entries, st.Evictions)
	}
	// A ninth evicts exactly the least recently used, fingerprint 0.
	get(8)
	for i := 1; i <= 8; i++ {
		if !get(i) {
			t.Errorf("fingerprint %d was evicted; only the LRU fingerprint 0 should be", i)
		}
	}
	if get(0) {
		t.Error("the LRU fingerprint 0 survived a ninth insert")
	}
	for _, capacity := range []int{1, 3, 8, 64} {
		for procs := 1; procs <= 8; procs++ {
			runtime.GOMAXPROCS(procs)
			if got := newSpaceCache(capacity, DefaultCacheBytes).Stats().Capacity; got != capacity {
				t.Errorf("GOMAXPROCS %d: newSpaceCache(%d) capacity = %d", procs, capacity, got)
			}
		}
	}
}

// TestCacheInvalidationDropsEveryStaleSpace: a newer version observed
// through entry drops every stale space, not just the one it looks up —
// even when that lookup's own build fails.
func TestCacheInvalidationDropsEveryStaleSpace(t *testing.T) {
	c := newSpaceCache(64, DefaultCacheBytes)
	var fps []Fingerprint
	for i := 0; i < 24; i++ {
		fps = append(fps, structureFingerprintOf(fmt.Appendf(nil, "SELECT %d", i), opt.DefaultOptions().Rules, 1, 1))
	}
	for _, f := range fps {
		c.entry(f, 1, func() (*StructureSpace, error) { return &StructureSpace{}, nil })
	}
	c.entry(fps[0], 2, func() (*StructureSpace, error) { return nil, errors.New("boom") })
	st := c.Stats()
	if st.Entries != 0 {
		t.Fatalf("version bump left %d entries", st.Entries)
	}
	// A newer version observed through a successful lookup must
	// release every stale space too, not just the one it looks up.
	for _, f := range fps {
		c.entry(f, 2, func() (*StructureSpace, error) { return &StructureSpace{}, nil })
	}
	c.entry(fps[0], 3, func() (*StructureSpace, error) { return &StructureSpace{}, nil })
	if got := c.Stats().Entries; got != 1 {
		t.Fatalf("version bump via entry left %d stale entries resident, want 1", got)
	}
	if st.Invalidations != uint64(len(fps)) {
		t.Fatalf("invalidations = %d, want %d", st.Invalidations, len(fps))
	}
	if st.BytesCached != 0 {
		t.Fatalf("bytes not released: %+v", st)
	}
}

// TestCacheSingleflightManyFingerprints: concurrent misses for many
// fingerprints still build each space exactly once.
func TestCacheSingleflightManyFingerprints(t *testing.T) {
	c := newSpaceCache(64, DefaultCacheBytes)
	var builds atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		f := structureFingerprintOf(fmt.Appendf(nil, "SELECT %d", i), opt.DefaultOptions().Rules, 1, 1)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, _, err := c.entry(f, 1, func() (*StructureSpace, error) {
					builds.Add(1)
					time.Sleep(5 * time.Millisecond)
					return &StructureSpace{}, nil
				})
				if err != nil {
					t.Error(err)
				}
			}()
		}
	}
	wg.Wait()
	if n := builds.Load(); n != 16 {
		t.Fatalf("builders ran %d times for 16 fingerprints", n)
	}
}

// TestCacheByteBudgetManyFingerprints: over 40 fingerprints, a byte
// budget smaller than the entry cap holds exactly the six entries that
// fit; zero disables byte eviction.
func TestCacheByteBudgetManyFingerprints(t *testing.T) {
	one := (&StructureSpace{}).SizeBytes()
	c := newSpaceCache(100, 6*one+one/2) // room for six entries, not seven
	var fps []Fingerprint
	for i := 0; i < 40; i++ {
		f := structureFingerprintOf(fmt.Appendf(nil, "SELECT %d", i), opt.DefaultOptions().Rules, 1, 1)
		fps = append(fps, f)
		c.entry(f, 1, func() (*StructureSpace, error) { return &StructureSpace{}, nil })
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no byte evictions under a tight budget: %+v", st)
	}
	if st.Entries != 6 || st.BytesCached > st.ByteBudget {
		t.Fatalf("%d entries, %d bytes resident under a %d-byte budget, want 6 within it", st.Entries, st.BytesCached, st.ByteBudget)
	}
	c = newSpaceCache(100, 0)
	for _, f := range fps {
		c.entry(f, 1, func() (*StructureSpace, error) { return &StructureSpace{}, nil })
	}
	if st := c.Stats(); st.Evictions != 0 || st.Entries != len(fps) {
		t.Fatalf("byte eviction ran with budget disabled: %+v", st)
	}
}
