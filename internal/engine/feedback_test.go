package engine_test

import (
	"context"
	"testing"

	"repro/internal/catalog"
	"repro/internal/data"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/rules"
	"repro/internal/storage"
)

// TestOverlayInvalidationTiers is the cache-tier matrix: each kind of
// change must invalidate exactly the right layer. Together with
// TestCatalogBumpInvalidatesTiers (stats vs. schema bumps) it pins down
// the contract "structure survives every cost-only change".
func TestOverlayInvalidationTiers(t *testing.T) {
	db := freshTinyTPCH(t)
	e := engine.New(db)
	base, err := e.Prepare(smallJoin)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("feedback epoch recosts only", func(t *testing.T) {
		invBefore := e.Overlays().Stats().Invalidations
		if _, epoch := e.ApplyFeedback(); epoch == 0 {
			t.Fatal("ApplyFeedback did not bump the epoch")
		}
		pp, err := e.Prepare(smallJoin)
		if err != nil {
			t.Fatal(err)
		}
		if !pp.Cached || pp.Shared != base.Shared {
			t.Error("feedback application rebuilt the structure")
		}
		if pp.OverlayCached || pp.Opt == base.Opt {
			t.Error("feedback application reused the stale overlay")
		}
		if e.Overlays().Stats().Invalidations <= invBefore {
			t.Error("stale overlays were not dropped on epoch bump")
		}
	})

	t.Run("rules change rebuilds the structure", func(t *testing.T) {
		cfg := rules.Default()
		cfg.AllowCartesian = true
		pp, err := e.Session(engine.WithRules(cfg)).Prepare(smallJoin)
		if err != nil {
			t.Fatal(err)
		}
		if pp.Cached || pp.Shared == base.Shared {
			t.Error("rules change served the old structure")
		}
		if pp.Fingerprint() == base.Fingerprint() {
			t.Error("structure fingerprint ignores the rule configuration")
		}
		if pp.OverlayCached {
			t.Error("new structure cannot have a cached overlay")
		}
	})
}

// skewedDB builds the adaptive-feedback fixture: an events⋈users join
// whose statistics lie. events.ev_kind actually holds two values split
// 50/50, but its recorded NDV claims a million distinct values, so the
// estimator prices the filter ev_kind = 1 at one surviving row and a
// nested-loop join with events as the outer looks nearly free — when in
// reality half the table survives and the nested loop rescans users
// once per surviving row.
func skewedDB(t *testing.T) *storage.DB {
	t.Helper()
	const (
		nEvents = 2000
		nUsers  = 2000
	)
	cat := catalog.New()
	cat.MustAdd(&catalog.Table{
		Name: "events",
		Columns: []catalog.Column{
			{Name: "ev_id", Kind: data.KindInt},
			{Name: "ev_kind", Kind: data.KindInt},
			{Name: "ev_user", Kind: data.KindInt},
		},
		AvgRowBytes: 24,
	})
	cat.MustAdd(&catalog.Table{
		Name: "users",
		Columns: []catalog.Column{
			{Name: "u_id", Kind: data.KindInt},
			{Name: "u_name", Kind: data.KindString},
		},
		AvgRowBytes: 32,
	})
	db := storage.NewDB(cat)
	events, _ := db.CreateTable("events")
	users, _ := db.CreateTable("users")
	for i := 0; i < nEvents; i++ {
		if err := events.Insert(i, i%2, i%nUsers); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < nUsers; i++ {
		if err := users.Insert(i, "user"); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.ComputeStats(); err != nil {
		t.Fatal(err)
	}
	// The lie: pretend ev_kind is nearly unique, so ev_kind = 1 looks
	// like it keeps one row instead of half the table (a stale- or
	// wrong-statistics scenario).
	def, _ := cat.Table("events")
	def.Columns[1].Stats.NDV = 1_000_000
	def.Columns[1].Stats.HistBounds = nil
	return db
}

// TestAdaptiveFeedbackImprovesPlan is the end-to-end adaptive loop on
// the skewed fixture: the misestimate makes the optimizer pick a plan
// that executes far more work than necessary; one execute → apply →
// execute round must re-optimize to a different rank whose measured
// work and latency do not exceed the pre-feedback choice.
func TestAdaptiveFeedbackImprovesPlan(t *testing.T) {
	db := skewedDB(t)
	e := engine.New(db)
	sess := e.Session()
	const q = "SELECT u_name FROM events, users WHERE ev_user = u_id AND ev_kind = 1"

	before, err := sess.Execute(context.Background(), q, nil, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if before.Result.Stats.Truncated {
		t.Fatalf("pre-feedback execution truncated: %+v", before.Result.Stats)
	}

	folded, epoch := e.ApplyFeedback()
	if folded == 0 || epoch != 1 {
		t.Fatalf("ApplyFeedback folded %d corrections at epoch %d, want >0 at 1", folded, epoch)
	}

	after, err := sess.Execute(context.Background(), q, nil, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if after.Result.Stats.Truncated {
		t.Fatalf("post-feedback execution truncated: %+v", after.Result.Stats)
	}
	if !after.Prepared.Cached {
		t.Error("post-feedback Execute rebuilt the structure instead of re-costing")
	}
	if after.Prepared.OverlayCached {
		t.Error("post-feedback Execute served the stale overlay")
	}

	if before.Rank.Cmp(after.Rank) == 0 {
		t.Fatalf("feedback did not change the chosen plan (rank %s)", before.Rank)
	}
	// The corrected choice must be genuinely better on the ground:
	// dramatically less work, and no slower. The misestimated plan
	// rescans users per surviving event row (millions of examined
	// rows); the corrected one is hash-join-shaped (thousands).
	wb, wa := before.Result.Stats.RowsExamined, after.Result.Stats.RowsExamined
	if wa*10 > wb {
		t.Errorf("re-optimized plan examined %d rows, pre-feedback %d — want >=10x reduction", wa, wb)
	}
	lb, la := before.Result.Stats.Elapsed, after.Result.Stats.Elapsed
	if la > lb {
		t.Errorf("re-optimized plan latency %v exceeds pre-feedback %v", la, lb)
	}
	// Same query, same answer: the re-optimized plan is a different
	// member of the same space.
	if !after.Result.Equivalent(before.Result, 1e-9) {
		t.Error("re-optimized plan produced different rows")
	}
}

// TestFeedbackRecordingSkipsTruncated: a governed, truncated run must
// not poison the store with prefix counts.
func TestFeedbackRecordingSkipsTruncated(t *testing.T) {
	db := skewedDB(t)
	e := engine.New(db)
	sess := e.Session()
	const q = "SELECT u_name FROM events, users WHERE ev_user = u_id AND ev_kind = 1"
	exe, err := sess.Execute(context.Background(), q, nil, exec.Options{MaxIntermediateRows: 500})
	if err != nil {
		t.Fatal(err)
	}
	if !exe.Result.Stats.Truncated {
		t.Fatalf("expected a truncated run, got %+v", exe.Result.Stats)
	}
	if st := e.Feedback().Snapshot(); st.Recorded != 0 {
		t.Errorf("truncated run recorded %d observations, want 0", st.Recorded)
	}
}
