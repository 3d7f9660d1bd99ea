package feedback

import (
	"math"
	"strconv"
	"sync"
	"testing"
)

func TestRecordApplyFactor(t *testing.T) {
	s := NewStore()
	if s.Epoch() != 0 {
		t.Fatalf("fresh store epoch = %d", s.Epoch())
	}
	if _, ok := s.Factor("k"); ok {
		t.Fatal("fresh store has a factor")
	}

	// Recording alone changes nothing observable but the counters.
	s.Record("k", 10, 1000, s.Epoch())
	if s.Epoch() != 0 {
		t.Error("Record bumped the epoch")
	}
	if _, ok := s.Factor("k"); ok {
		t.Error("Record activated a factor before Apply")
	}

	folded, epoch := s.Apply()
	if folded != 1 || epoch != 1 {
		t.Fatalf("Apply = (%d, %d), want (1, 1)", folded, epoch)
	}
	f, ok := s.Factor("k")
	if !ok || math.Abs(f-100) > 1e-9 {
		t.Fatalf("factor = %g, %v; want 100", f, ok)
	}

	// Ratios measured against corrected estimates compose: estimate now
	// 1000, observed still 1000 → factor stays.
	s.Record("k", 1000, 1000, s.Epoch())
	s.Apply()
	if f, _ := s.Factor("k"); math.Abs(f-100) > 1e-9 {
		t.Errorf("unit ratio moved the factor to %g", f)
	}

	// A residual error composes multiplicatively.
	s.Record("k", 1000, 2000, s.Epoch())
	s.Apply()
	if f, _ := s.Factor("k"); math.Abs(f-200) > 1e-9 {
		t.Errorf("composed factor = %g, want 200", f)
	}
}

func TestGeometricMeanAndClamp(t *testing.T) {
	s := NewStore()
	// Two observations 4x and 1/4x cancel geometrically.
	s.Record("k", 10, 40, s.Epoch())
	s.Record("k", 40, 10, s.Epoch())
	s.Apply()
	if f, _ := s.Factor("k"); math.Abs(f-1) > 1e-9 {
		t.Errorf("geometric mean factor = %g, want 1", f)
	}

	// A single absurd ratio is clamped per round.
	s.Record("wild", 1, 1e12, s.Epoch())
	s.Apply()
	if f, _ := s.Factor("wild"); f > 1e4+1 {
		t.Errorf("round factor %g exceeds the clamp", f)
	}

	// Garbage observations are dropped.
	s.Record("", 1, 2, s.Epoch())
	s.Record("z", 0, 5, s.Epoch())
	s.Record("z", 5, 0, s.Epoch())
	s.Record("z", math.NaN(), 5, s.Epoch())
	s.Record("z", 5, math.Inf(1), s.Epoch())
	if st := s.Snapshot(); st.Pending != 0 {
		t.Errorf("garbage observations pending: %+v", st)
	}
}

func TestApplyWithoutPendingStillBumps(t *testing.T) {
	s := NewStore()
	folded, epoch := s.Apply()
	if folded != 0 || epoch != 1 {
		t.Fatalf("empty Apply = (%d, %d), want (0, 1)", folded, epoch)
	}
}

func TestResetDropsStateAndBumps(t *testing.T) {
	s := NewStore()
	s.Record("k", 1, 10, s.Epoch())
	s.Apply()
	if e := s.Reset(); e != 2 {
		t.Fatalf("Reset epoch = %d, want 2", e)
	}
	if _, ok := s.Factor("k"); ok {
		t.Error("Reset kept a factor")
	}
}

// TestEpochViewImmutable: the (epoch, factors) pair is an immutable
// snapshot — a later Apply must publish a NEW map, leaving views
// already handed out untouched. Cost overlays are fingerprinted by the
// epoch and costed from the view, so this is what keeps a concurrent
// fold from slipping different factors under an already-chosen
// fingerprint.
func TestEpochViewImmutable(t *testing.T) {
	s := NewStore()
	s.Record("k", 10, 1000, s.Epoch())
	s.Apply()
	epoch1, view1 := s.EpochView()
	if epoch1 != 1 || math.Abs(view1["k"]-100) > 1e-6 {
		t.Fatalf("view at epoch %d = %v, want k:100 at 1", epoch1, view1)
	}
	frozen := view1["k"]

	s.Record("k", 1000, 4000, s.Epoch())
	s.Apply()
	epoch2, view2 := s.EpochView()
	if epoch2 != 2 || math.Abs(view2["k"]-400) > 1e-4 {
		t.Fatalf("view at epoch %d = %v, want k:400 at 2", epoch2, view2)
	}
	if view1["k"] != frozen {
		t.Errorf("epoch-1 view mutated to %v after a later Apply", view1["k"])
	}

	if s.Reset() != 3 {
		t.Fatal("reset epoch")
	}
	if _, view3 := s.EpochView(); view3 != nil {
		t.Errorf("post-Reset view = %v, want nil", view3)
	}
	if math.Abs(view2["k"]-400) > 1e-4 {
		t.Errorf("epoch-2 view mutated by Reset")
	}
}

func TestConcurrentRecordApply(t *testing.T) {
	s := NewStore()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				s.Record("k", 10, 20, s.Epoch())
				if i%100 == 0 {
					s.Apply()
				}
				s.Factor("k")
				s.Corrections()
				s.Snapshot()
			}
		}()
	}
	wg.Wait()
	// Some observations legitimately race an Apply (epoch read, fold,
	// then Record) and are dropped by the epoch guard; the rest land.
	if st := s.Snapshot(); st.Recorded == 0 || st.Recorded > 8*500 {
		t.Errorf("recorded = %d, want in (0, %d]", st.Recorded, 8*500)
	}
}

// TestRecordStaleEpochDropped: an observation measured against an
// older epoch's estimates (an execution that straddled a fold) must
// not be folded onto the newer factors — that would double-correct.
func TestRecordStaleEpochDropped(t *testing.T) {
	s := NewStore()
	s.Record("k", 10, 1000, 0)
	s.Apply()                  // epoch 1, factor 100
	s.Record("k", 10, 1000, 0) // stale: measured against epoch-0 estimates
	if st := s.Snapshot(); st.Pending != 0 {
		t.Fatalf("stale-epoch observation pending: %+v", st)
	}
	s.Apply()
	if f, _ := s.Factor("k"); math.Abs(f-100) > 1e-6 {
		t.Errorf("stale observation moved the factor to %g, want 100", f)
	}
}

// TestStoreCapEvictsLeastRecentlyObserved: neither map grows past
// MaxKeys, and the key evicted at the cap is the one observed longest
// ago, in pending and in active alike.
func TestStoreCapEvictsLeastRecentlyObserved(t *testing.T) {
	s := NewStore()
	key := func(i int) string { return "k" + strconv.Itoa(i) }
	for i := 0; i < MaxKeys; i++ {
		s.Record(key(i), 1, 2, 0)
	}
	s.Record(key(0), 1, 2, 0)       // k0 observed again: k1 is now the oldest
	s.Record(key(MaxKeys), 1, 2, 0) // one key too many
	st := s.Snapshot()
	if st.Pending != MaxKeys || st.Evicted != 1 || st.MaxKeys != MaxKeys {
		t.Fatalf("pending %d, evicted %d, max %d; want %d, 1, %d", st.Pending, st.Evicted, st.MaxKeys, MaxKeys, MaxKeys)
	}
	if folded, _ := s.Apply(); folded != MaxKeys {
		t.Fatalf("folded %d keys, want %d", folded, MaxKeys)
	}
	if _, ok := s.Factor(key(1)); ok {
		t.Error("the least recently observed pending key survived")
	}
	if f, ok := s.Factor(key(0)); !ok || math.Abs(f-2) > 1e-9 {
		t.Errorf("k0 factor = %g, %v; want 2", f, ok)
	}

	// Observing k2 keeps its correction; a new key then evicts k3, the
	// oldest active one.
	s.Record(key(2), 1, 1, s.Epoch())
	s.Record("new", 1, 1, s.Epoch())
	s.Apply()
	st = s.Snapshot()
	if st.Active != MaxKeys || st.Pending != 0 {
		t.Fatalf("active %d, pending %d; want %d, 0", st.Active, st.Pending, MaxKeys)
	}
	if _, ok := s.Factor(key(3)); ok {
		t.Error("the least recently observed active key survived")
	}
	for _, k := range []string{key(2), "new", key(MaxKeys)} {
		if _, ok := s.Factor(k); !ok {
			t.Errorf("%s lost its correction", k)
		}
	}
}
