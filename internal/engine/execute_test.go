package engine_test

import (
	"context"
	"math/big"
	"strings"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/tpch"
)

// TestExecuteGoldenTable1 pins the paper's verification invariant on
// the real workload: for every Table-1 query, the optimizer's plan and
// five seeded uniformly sampled plans must produce the same multiset of
// rows (Result.Equivalent) — plan choice must never change answers.
// Everything runs through Session.Execute, i.e. the same
// prepare-through-cache + unrank + governed-run path /execute serves.
func TestExecuteGoldenTable1(t *testing.T) {
	db := tinyTPCH(t)
	e := engine.New(db)
	sess := e.Session()
	for _, q := range tpch.PaperQueries() {
		q := q
		t.Run(q, func(t *testing.T) {
			sqlText, ok := tpch.Query(q)
			if !ok {
				t.Fatalf("unknown query %s", q)
			}
			optimal, err := sess.Execute(context.Background(), sqlText, nil, exec.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if optimal.Result.Stats.Truncated {
				t.Fatalf("optimal plan truncated: %+v", optimal.Result.Stats)
			}
			if optimal.ScaledCost < 0.999 || optimal.ScaledCost > 1.001 {
				t.Errorf("optimal scaled cost = %g, want 1.0", optimal.ScaledCost)
			}
			smp, err := optimal.Prepared.Sampler(7)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 5; i++ {
				rank := smp.NextRank()
				exe, err := sess.Execute(context.Background(), sqlText, rank, exec.Options{})
				if err != nil {
					t.Fatalf("sampled plan %s: %v", rank, err)
				}
				if exe.Result.Stats.Truncated {
					t.Fatalf("sampled plan %s truncated: %+v", rank, exe.Result.Stats)
				}
				if !exe.Result.Equivalent(optimal.Result, 1e-9) {
					t.Errorf("sampled plan %s produced different rows than the optimal plan:\n%s",
						rank, exe.Plan)
				}
				if exe.ScaledCost < 0.999 {
					t.Errorf("sampled plan %s scaled cost %g below the optimum", rank, exe.ScaledCost)
				}
			}
			if !optimal.Prepared.Cached {
				// The very first Execute of this query built the space;
				// every sampled execution above must have ridden the cache.
				st := e.Cache().Stats()
				if st.Hits == 0 {
					t.Error("sampled executions did not hit the space cache")
				}
			}
		})
	}
}

// TestExecuteResolvesUseplan is the table test of Prepared.Select, the
// one resolution order: an explicit rank, else OPTION (USEPLAN n), else
// the optimizer's plan with its precomputed rank; ranks outside [0, N)
// are rejected. Session.Execute must run exactly the plan Select
// resolves.
func TestExecuteResolvesUseplan(t *testing.T) {
	db := tinyTPCH(t)
	sess := engine.New(db).Session()
	const useplan = smallJoin + " OPTION (USEPLAN 12345)"
	base, err := sess.Prepare(smallJoin)
	if err != nil {
		t.Fatal(err)
	}
	optimal, err := base.OptimalRank()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		sql      string
		rank     *big.Int
		wantRank *big.Int // nil: Select must fail
	}{
		{"nil is optimal", smallJoin, nil, optimal},
		{"USEPLAN", useplan, nil, big.NewInt(12345)},
		{"rank overrides USEPLAN", useplan, big.NewInt(7), big.NewInt(7)},
		{"negative rank", smallJoin, big.NewInt(-1), nil},
		{"rank = N", smallJoin, base.Count(), nil},
		{"rank beyond N", smallJoin, new(big.Int).Lsh(big.NewInt(1), 80), nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := sess.Prepare(tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			rank, pl, err := p.Select(tc.rank)
			exe, execErr := sess.Execute(context.Background(), tc.sql, tc.rank, exec.Options{})
			if tc.wantRank == nil {
				if err == nil || !strings.Contains(err.Error(), "out of range") {
					t.Errorf("Select(%s) = %v, want an out-of-range error", tc.rank, err)
				}
				if execErr == nil {
					t.Errorf("Execute ran out-of-range rank %s", tc.rank)
				}
				return
			}
			if err != nil || execErr != nil {
				t.Fatalf("Select: %v; Execute: %v", err, execErr)
			}
			if rank.Cmp(tc.wantRank) != 0 || exe.Rank.Cmp(tc.wantRank) != 0 {
				t.Errorf("Select rank %s, Execute rank %s, want %s", rank, exe.Rank, tc.wantRank)
			}
			direct, err := p.Unrank(tc.wantRank)
			if err != nil {
				t.Fatal(err)
			}
			if !plan.Equal(pl, direct) || !plan.Equal(exe.Plan, direct) {
				t.Errorf("selected plan differs from Unrank(%s)", tc.wantRank)
			}
			res, err := p.Execute(direct)
			if err != nil {
				t.Fatal(err)
			}
			if res.Digest() != exe.Result.Digest() {
				t.Error("Session.Execute differs from direct unrank+execute")
			}
		})
	}
}

// TestCheckRowsAndOrder: Prepared.Check accepts a reordered result when
// the query has no ORDER BY, and rejects a result in the wrong ORDER BY
// order or with a float off by more than its 1e-9 relative tolerance.
func TestCheckRowsAndOrder(t *testing.T) {
	sess := engine.New(tinyTPCH(t)).Session()
	run := func(sqlText string) (*engine.Prepared, *exec.Result) {
		t.Helper()
		exe, err := sess.Execute(context.Background(), sqlText, nil, exec.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return exe.Prepared, exe.Result
	}
	// reordered copies rows in the order of idx.
	reordered := func(res *exec.Result, idx func(i, n int) int) *exec.Result {
		out := &exec.Result{Columns: res.Columns, Strings: res.Strings, Rows: make([]data.Row, len(res.Rows))}
		for i := range res.Rows {
			out.Rows[i] = res.Rows[idx(i, len(res.Rows))].Clone()
		}
		return out
	}
	reverse := func(i, n int) int { return n - 1 - i }

	p, ref := run("SELECT r_regionkey, r_name FROM region")
	shuffled := reordered(ref, func(i, n int) int { return (i + 2) % n })
	if err := p.Check(shuffled, ref); err != nil {
		t.Errorf("same rows shuffled, no ORDER BY: %v", err)
	}

	p, ref = run("SELECT r_name FROM region ORDER BY r_name")
	err := p.Check(reordered(ref, reverse), ref)
	if err == nil || !strings.Contains(err.Error(), "order violation") {
		t.Errorf("rows reversed under ORDER BY r_name: %v, want an order violation", err)
	}

	p, ref = run("SELECT COUNT(l_orderkey) AS n, SUM(l_extendedprice) AS s FROM lineitem")
	scaled := func(factor float64) *exec.Result {
		out := reordered(ref, func(i, _ int) int { return i })
		out.Rows[0][1] = data.NewFloat(out.Rows[0][1].Float() * factor)
		return out
	}
	if err := p.Check(scaled(1+1e-12), ref); err != nil {
		t.Errorf("float within tolerance rejected: %v", err)
	}
	err = p.Check(scaled(1+1e-6), ref)
	if err == nil || !strings.Contains(err.Error(), "different rows") {
		t.Errorf("float off by 1e-6 relative: %v, want different rows", err)
	}
}

// crossProduct is a deliberately pathological statement: no join
// predicates at all, so every plan is a chain of cross products over
// ~2400 × 600 × 60 rows — far beyond any sane budget at this scale.
const crossProduct = "SELECT COUNT(l_orderkey) AS n FROM lineitem, orders, customer"

// TestGovernorKillsCrossProduct: the Governor must cut a cross-product
// plan off — by wall clock and by intermediate-row budget — instead of
// letting it run for minutes.
func TestGovernorKillsCrossProduct(t *testing.T) {
	db := tinyTPCH(t)
	sess := engine.New(db).Session(engine.WithCartesian(true))

	t.Run("deadline", func(t *testing.T) {
		start := time.Now()
		exe, err := sess.Execute(context.Background(), crossProduct,
			nil, exec.Options{Timeout: 100 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		elapsed := time.Since(start)
		if !exe.Result.Stats.Truncated || exe.Result.Stats.Reason != exec.ReasonDeadline {
			t.Fatalf("stats = %+v, want truncated deadline_exceeded", exe.Result.Stats)
		}
		if elapsed > 5*time.Second {
			t.Errorf("deadline enforcement took %v for a 100ms budget", elapsed)
		}
	})

	t.Run("work_budget", func(t *testing.T) {
		exe, err := sess.Execute(context.Background(), crossProduct,
			nil, exec.Options{MaxIntermediateRows: 100_000})
		if err != nil {
			t.Fatal(err)
		}
		st := exe.Result.Stats
		if !st.Truncated || st.Reason != exec.ReasonWorkBudget {
			t.Fatalf("stats = %+v, want truncated work_budget_exceeded", st)
		}
		if st.RowsExamined > 100_000+int64(exec.DefaultCheckEvery) {
			t.Errorf("examined %d rows against a budget of 100000", st.RowsExamined)
		}
	})

	t.Run("cancel_mid_flight", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(50 * time.Millisecond)
			cancel()
		}()
		start := time.Now()
		exe, err := sess.Execute(ctx, crossProduct, nil, exec.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !exe.Result.Stats.Truncated || exe.Result.Stats.Reason != exec.ReasonCanceled {
			t.Fatalf("stats = %+v, want truncated canceled", exe.Result.Stats)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Errorf("cancellation took %v to take effect", elapsed)
		}
	})
}
