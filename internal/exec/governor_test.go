package exec_test

import (
	"context"
	"math/big"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/memo"
	"repro/internal/plan"
)

// govern runs one plan through Build/Open/Next/Close with an
// inspectable Governor, returning the rows drawn, the first error, and
// the governor for lifecycle assertions. It always closes the tree.
func govern(t *testing.T, p *engine.Prepared, pl *plan.Node, opts exec.Options) (int, error, *exec.Governor) {
	t.Helper()
	gov := exec.NewGovernor(context.Background(), opts)
	it, err := exec.Build(pl, p.Engine().DB(), p.Shared.Query, gov)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	rows := 0
	runErr := func() error {
		if err := it.Open(); err != nil {
			return err
		}
		for {
			_, ok, err := it.Next()
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
			rows++
		}
	}()
	if err := it.Close(); err != nil && runErr == nil {
		runErr = err
	}
	return rows, runErr, gov
}

func TestRowLimitTruncates(t *testing.T) {
	db := buildDB(t)
	p, err := engine.New(db).Prepare("SELECT oid FROM ord ORDER BY oid")
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.ExecuteWith(context.Background(), p.OptimalPlan(), exec.Options{MaxRows: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Errorf("rows = %d, want 3", len(res.Rows))
	}
	if !res.Stats.Truncated || res.Stats.Reason != exec.ReasonRowLimit {
		t.Errorf("stats = %+v, want truncated row_limit", res.Stats)
	}
	// The same query without limits is not truncated.
	full, err := p.ExecuteWith(context.Background(), p.OptimalPlan(), exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if full.Stats.Truncated {
		t.Errorf("unlimited run reported truncation: %+v", full.Stats)
	}
	// A cap equal to the exact result size is not a truncation: the cap
	// only trips when a row beyond it exists.
	exact, err := p.ExecuteWith(context.Background(), p.OptimalPlan(),
		exec.Options{MaxRows: int64(len(full.Rows))})
	if err != nil {
		t.Fatal(err)
	}
	if exact.Stats.Truncated {
		t.Errorf("exact-size cap reported truncation: %+v", exact.Stats)
	}
	if len(exact.Rows) != len(full.Rows) {
		t.Errorf("exact-size cap returned %d of %d rows", len(exact.Rows), len(full.Rows))
	}
	if full.Stats.RowsProduced != int64(len(full.Rows)) || full.Stats.RowsExamined < full.Stats.RowsProduced {
		t.Errorf("implausible stats: %+v", full.Stats)
	}
}

func TestWorkBudgetTruncates(t *testing.T) {
	db := buildDB(t)
	p, err := engine.New(db).Prepare(`SELECT region, SUM(amount * qty) AS rev
		FROM cust, ord, item WHERE cid = ocid AND oid = ioid
		GROUP BY region ORDER BY rev DESC`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.ExecuteWith(context.Background(), p.OptimalPlan(), exec.Options{MaxIntermediateRows: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Truncated || res.Stats.Reason != exec.ReasonWorkBudget {
		t.Errorf("stats = %+v, want truncated work_budget_exceeded", res.Stats)
	}
}

func TestCanceledContextTruncates(t *testing.T) {
	db := buildDB(t)
	p, err := engine.New(db).Prepare("SELECT oid FROM ord")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := p.ExecuteWith(ctx, p.OptimalPlan(), exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Truncated || res.Stats.Reason != exec.ReasonCanceled {
		t.Errorf("stats = %+v, want truncated canceled", res.Stats)
	}
	if len(res.Rows) != 0 {
		t.Errorf("pre-canceled run produced %d rows", len(res.Rows))
	}
}

func TestImmediateDeadlineTruncates(t *testing.T) {
	db := buildDB(t)
	p, err := engine.New(db).Prepare("SELECT oid FROM ord")
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.ExecuteWith(context.Background(), p.OptimalPlan(), exec.Options{Timeout: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Truncated || res.Stats.Reason != exec.ReasonDeadline {
		t.Errorf("stats = %+v, want truncated deadline_exceeded", res.Stats)
	}
}

// TestOperatorCountersRecorded: every executed plan reports per-operator
// row counters and a root count equal to the produced rows.
func TestOperatorCountersRecorded(t *testing.T) {
	db := buildDB(t)
	p, err := engine.New(db).Prepare("SELECT cname, amount FROM cust, ord WHERE cid = ocid ORDER BY amount")
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Execute(p.OptimalPlan())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats.Operators) == 0 {
		t.Fatal("no operator counters recorded")
	}
	var scans, rootRows int64
	for _, op := range res.Stats.Operators {
		if strings.HasPrefix(op.Op, "TableScan") || strings.HasPrefix(op.Op, "IndexScan") {
			scans += op.Rows
		}
		if strings.HasPrefix(op.Op, "Result") {
			rootRows = op.Rows
		}
	}
	if scans == 0 {
		t.Errorf("no scan rows counted: %+v", res.Stats.Operators)
	}
	if rootRows != res.Stats.RowsProduced {
		t.Errorf("root operator counted %d rows, result has %d", rootRows, res.Stats.RowsProduced)
	}
	if res.Stats.RowsExamined < res.Stats.RowsProduced {
		t.Errorf("rows examined %d < produced %d", res.Stats.RowsExamined, res.Stats.RowsProduced)
	}
}

// TestNoIteratorLeaksOnErrorPaths is the leak-check harness: execute
// EVERY plan of a query whose expression fails mid-stream (division by
// zero) and assert that after the root Close not a single iterator in
// the tree remains open — the Governor audits each Open/Close
// transition. Before the close-cascade fix, plans materializing inputs
// inside Open (hash build, merge/sort loads) leaked their children on
// exactly this path. The ordered variant sorts on the failing
// projection, which no child holds, so every plan's Result self-sorts
// and the error comes from a projection inside the sort's load.
func TestNoIteratorLeaksOnErrorPaths(t *testing.T) {
	db := buildDB(t)
	const query = "SELECT amount / (qty - qty) AS boom FROM ord, item WHERE oid = ioid"
	for _, tc := range []struct {
		name, sql string
		selfSort  bool
	}{
		{"streaming", query, false},
		{"self_sorting", query + " ORDER BY boom", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := engine.New(db).Prepare(tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			n := p.Count()
			if !n.IsInt64() || n.Int64() > 100000 {
				t.Fatalf("space too large for exhaustive leak check: %s", n)
			}
			checked := 0
			err = p.Space.Enumerate(func(r *big.Int, pl *plan.Node) bool {
				if selfSort := pl.Expr.Op == memo.Result && !pl.Expr.SortOrder.IsNone(); selfSort != tc.selfSort {
					t.Fatalf("plan %s: self-sorting Result %v, want %v:\n%s", r, selfSort, tc.selfSort, pl)
				}
				_, runErr, gov := govern(t, p, pl, exec.Options{})
				if runErr == nil || !strings.Contains(runErr.Error(), "division by zero") {
					t.Fatalf("plan %s: expected division-by-zero, got %v", r, runErr)
				}
				if gov.OpenIterators() != 0 {
					t.Fatalf("plan %s leaked %d open iterators:\n%s", r, gov.OpenIterators(), pl)
				}
				if gov.Opens() == 0 {
					t.Fatalf("plan %s: lifecycle audit saw no opens", r)
				}
				checked++
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("leak-checked %d plans on the error path", checked)
		})
	}
}

// TestNoIteratorLeaksOnTruncation: the same audit across every plan
// when the Governor cuts execution short mid-stream.
func TestNoIteratorLeaksOnTruncation(t *testing.T) {
	db := buildDB(t)
	p, err := engine.New(db).Prepare(`SELECT region, SUM(amount * qty) AS rev
		FROM cust, ord, item WHERE cid = ocid AND oid = ioid
		GROUP BY region ORDER BY rev DESC`)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	err = p.Space.Enumerate(func(r *big.Int, pl *plan.Node) bool {
		_, runErr, gov := govern(t, p, pl, exec.Options{MaxIntermediateRows: 3})
		if runErr == nil {
			t.Fatalf("plan %s: expected a work-budget error from the raw iterator walk", r)
		}
		if gov.OpenIterators() != 0 {
			t.Fatalf("plan %s leaked %d open iterators under truncation:\n%s", r, gov.OpenIterators(), pl)
		}
		checked++
		return checked < 200 // a representative prefix keeps the test fast
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("leak-checked %d plans under truncation", checked)
}

// TestNestedLoopReopenLifecycle: a plan with a nested-loop join re-Opens
// its inner child once per outer row; the lifecycle audit must still
// balance and the result must match the optimizer plan's.
func TestNestedLoopReopenLifecycle(t *testing.T) {
	db := buildDB(t)
	p, err := engine.New(db).Prepare("SELECT cname, amount FROM cust, ord WHERE cid = ocid ORDER BY amount")
	if err != nil {
		t.Fatal(err)
	}
	reference, err := p.Execute(p.OptimalPlan())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	err = p.Space.Enumerate(func(r *big.Int, pl *plan.Node) bool {
		for _, op := range pl.Operators() {
			if op.Op == memo.NestedLoopJoin {
				res, err := p.Execute(pl)
				if err != nil {
					t.Fatalf("NL plan %s: %v", r, err)
				}
				if !res.Equivalent(reference, 1e-9) {
					t.Fatalf("NL plan %s differs:\n%s", r, pl)
				}
				_, runErr, gov := govern(t, p, pl, exec.Options{})
				if runErr != nil {
					t.Fatalf("NL plan %s raw walk: %v", r, runErr)
				}
				if gov.OpenIterators() != 0 {
					t.Fatalf("NL plan %s leaked %d iterators", r, gov.OpenIterators())
				}
				found = true
				return false
			}
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("no nested-loop plan in the space")
	}
}

// TestGovernorGovernsOneBuild: a second Build on a Governor fails, and
// the tree of the first still counts into its Governor as if no second
// Build had been tried.
func TestGovernorGovernsOneBuild(t *testing.T) {
	db := buildDB(t)
	p, err := engine.New(db).Prepare("SELECT cname, amount FROM cust, ord WHERE cid = ocid ORDER BY amount")
	if err != nil {
		t.Fatal(err)
	}
	pl := p.OptimalPlan()
	_, err, alone := govern(t, p, pl, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}

	gov := exec.NewGovernor(context.Background(), exec.Options{})
	it, err := exec.Build(pl, db, p.Shared.Query, gov)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exec.Build(pl, db, p.Shared.Query, gov); err == nil {
		t.Fatal("a second Build on one Governor succeeded")
	}
	if err := it.Open(); err != nil {
		t.Fatal(err)
	}
	for {
		_, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := gov.Stats(), alone.Stats(); !slices.Equal(got, want) {
		t.Fatalf("stats after a refused second Build\n got %+v\nwant %+v", got, want)
	}
}
