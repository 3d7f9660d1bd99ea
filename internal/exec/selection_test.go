package exec_test

import (
	"context"
	"fmt"
	"math/big"
	"slices"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/memo"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/tpch"
)

// cancelAt is a context that reports Canceled from its n-th Err call
// on: the Governor polls Err once per checkpoint, so it cancels an
// execution at its n-th checkpoint.
type cancelAt struct {
	context.Context
	calls, n int
}

func (c *cancelAt) Err() error {
	c.calls++
	if c.calls >= c.n {
		return context.Canceled
	}
	return nil
}

// runOutcome renders what one execution reports to its callers: the
// error, or the truncation reason or digest, RowsExamined and every
// operator's rows and opens.
func runOutcome(res *exec.Result, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	var sb strings.Builder
	st := res.Stats
	fmt.Fprintf(&sb, "examined=%d produced=%d", st.RowsExamined, st.RowsProduced)
	if st.Truncated {
		sb.WriteString(" truncated=" + st.Reason)
	} else {
		sb.WriteString(" digest=" + res.Digest())
	}
	for _, op := range st.Operators {
		fmt.Fprintf(&sb, " %s:%d/%d", op.Name, op.Rows, op.Opens)
	}
	return sb.String()
}

// scannedFiltered lists the relations with a filter that plan pl scans.
func scannedFiltered(pl *plan.Node) []int {
	var out []int
	for _, e := range pl.Operators() {
		if (e.Op == memo.TableScan || e.Op == memo.IndexScan) && len(e.Scan.Rel.Filters) > 0 && !slices.Contains(out, e.Scan.Rel.Idx) {
			out = append(out, e.Scan.Rel.Idx)
		}
	}
	return out
}

// TestSelectionCacheEquivalent runs the optimal plan and the sampled
// sweep's 40 seeded plans of Q3, Q5, Q9 and Q10 three ways: evaluating
// every filter row by row with nothing cached, recording into fresh
// Selections, and walking the bitmaps of Selections recorded before.
// All three must report the same error, digest, RowsExamined,
// truncation and per-operator rows and opens: under no budget (the
// optimal plans; most sampled plans run for seconds unbudgeted), under
// the sweep's 16,000-row budget and one of 50,000, under every seventh
// budget up to the
// full work of Q10's optimal plan (most of whose ticks are filtered
// rows of its lineitem and orders scans, so many of these budgets trip
// inside a gap the bitmap skips), and canceled at each checkpoint of
// that plan.
func TestSelectionCacheEquivalent(t *testing.T) {
	if testing.Short() {
		t.Skip("executes each of 164 plans several times")
	}
	db, err := tpch.NewDB(0.001, 42)
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(db)
	for _, name := range []string{"Q3", "Q5", "Q9", "Q10"} {
		sqlText, _ := tpch.Query(name)
		p, err := e.Prepare(sqlText)
		if err != nil {
			t.Fatal(err)
		}
		q := p.Shared.Query
		plans := []*plan.Node{p.OptimalPlan()}
		smp, err := p.Sampler(23)
		if err != nil {
			t.Fatal(err)
		}
		for range 40 {
			_, pl, err := smp.Next()
			if err != nil {
				t.Fatal(err)
			}
			plans = append(plans, pl)
		}
		warm := exec.NewSelections(db, q)
		check := func(what string, pl *plan.Node, ctx func() context.Context, opts exec.Options) {
			t.Helper()
			want := runOutcome(exec.RunWithOptions(ctx(), pl, db, q, nil, opts))
			if got := runOutcome(exec.RunWithOptions(ctx(), pl, db, q, exec.NewSelections(db, q), opts)); got != want {
				t.Fatalf("%s %s, recording:\n got %s\nwant %s", name, what, got, want)
			}
			if got := runOutcome(exec.RunWithOptions(ctx(), pl, db, q, warm, opts)); got != want {
				t.Fatalf("%s %s, walking bitmaps:\n got %s\nwant %s", name, what, got, want)
			}
		}
		background := context.Background

		// Record: the optimal plan scans its filtered relations to the
		// end, and the sampled plans add what they finish.
		opt := p.OptimalPlan()
		if _, err := exec.RunWithOptions(background(), opt, db, q, warm, exec.Options{}); err != nil {
			t.Fatal(err)
		}
		for _, pl := range plans[1:] {
			if _, err := exec.RunWithOptions(background(), pl, db, q, warm, exec.Options{MaxIntermediateRows: 16_000}); err != nil {
				t.Fatal(err)
			}
		}
		filtered := scannedFiltered(opt)
		for _, rel := range filtered {
			if got, want := warm.Published(rel), len(mustTable(t, db, q.Rels[rel].Table.Name).Rows); got != want {
				t.Fatalf("%s: relation %s has a bitmap of %d rows after a full scan, want %d", name, q.Rels[rel].Name, got, want)
			}
		}
		if len(filtered) == 0 {
			t.Fatalf("%s: the optimal plan scans no filtered relation", name)
		}

		check("optimal, no budget", opt, background, exec.Options{})
		for i, pl := range plans {
			for _, budget := range []int64{16_000, 50_000} {
				check(fmt.Sprintf("plan %d, budget %d", i, budget), pl, background, exec.Options{MaxIntermediateRows: budget})
			}
		}
		if name != "Q10" {
			continue
		}
		full, err := exec.RunWithOptions(background(), opt, db, q, nil, exec.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for budget := int64(1); budget <= full.Stats.RowsExamined; budget += 7 {
			check(fmt.Sprintf("optimal, budget %d", budget), opt, background, exec.Options{MaxIntermediateRows: budget})
		}
		for n := 1; n <= 20; n++ {
			check(fmt.Sprintf("optimal, canceled at checkpoint %d", n), opt,
				func() context.Context { return &cancelAt{Context: context.Background(), n: n} }, exec.Options{})
		}
	}
}

func mustTable(t *testing.T, db *storage.DB, name string) *storage.Table {
	t.Helper()
	tbl, err := db.Table(name)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// TestSelectionSeesInsert: a row inserted after a bitmap was published
// is seen by the next execution of every plan, table scan and index
// scan alike, which records a bitmap covering it.
func TestSelectionSeesInsert(t *testing.T) {
	db := buildDB(t)
	p, err := engine.New(db).Prepare("SELECT oid FROM ord WHERE amount > 50 ORDER BY oid")
	if err != nil {
		t.Fatal(err)
	}
	q := p.Shared.Query
	ord := mustTable(t, db, "ord")
	var plans []*plan.Node
	if err := p.Space.Enumerate(func(_ *big.Int, pl *plan.Node) bool {
		plans = append(plans, pl)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	sel := exec.NewSelections(db, q)
	run := func(want string) {
		t.Helper()
		for _, pl := range plans {
			for _, s := range []*exec.Selections{sel, nil} {
				res, err := exec.RunWithOptions(context.Background(), pl, db, q, s, exec.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if got := strings.Join(rowStrings(res), ","); got != want {
					t.Fatalf("plan\n%s\nrows %s, want %s", pl, got, want)
				}
			}
			if got := sel.Published(0); got != len(ord.Rows) {
				t.Fatalf("bitmap covers %d rows, the table holds %d", got, len(ord.Rows))
			}
		}
		// The structure's own Selections, through the engine.
		res, err := p.Execute(p.OptimalPlan())
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Join(rowStrings(res), ","); got != want {
			t.Fatalf("Prepared.Execute: rows %s, want %s", got, want)
		}
	}
	run("103")
	if err := ord.Insert(data.NewInt(106), data.NewInt(1), data.NewFloat(60), data.NewDate(data.MustParseDate("1996-01-01"))); err != nil {
		t.Fatal(err)
	}
	run("103,106")
}

// TestSelectionErrorPublishesNothing: a filter that fails partway
// through its table fails every plan with the error it gives with
// nothing cached, and publishes no bitmap.
func TestSelectionErrorPublishesNothing(t *testing.T) {
	db := buildDB(t)
	p, err := engine.New(db).Prepare("SELECT oid FROM ord WHERE amount / (oid - 103) > 0")
	if err != nil {
		t.Fatal(err)
	}
	q := p.Shared.Query
	sel := exec.NewSelections(db, q)
	err = p.Space.Enumerate(func(r *big.Int, pl *plan.Node) bool {
		_, want := exec.RunWithOptions(context.Background(), pl, db, q, nil, exec.Options{})
		_, got := exec.RunWithOptions(context.Background(), pl, db, q, sel, exec.Options{})
		if want == nil || !strings.Contains(want.Error(), "division by zero") {
			t.Fatalf("plan %s: want a division by zero, got %v", r, want)
		}
		if got == nil || got.Error() != want.Error() {
			t.Fatalf("plan %s: error %v with a cache, %v without", r, got, want)
		}
		if n := sel.Published(0); n != -1 {
			t.Fatalf("plan %s: a failed scan published a bitmap of %d rows", r, n)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSelectionsOfAnotherQuery: Build refuses Selections made for
// another query, whose slots would index other relations.
func TestSelectionsOfAnotherQuery(t *testing.T) {
	db := buildDB(t)
	e := engine.New(db)
	p, err := e.Prepare("SELECT oid FROM ord WHERE amount > 50")
	if err != nil {
		t.Fatal(err)
	}
	other, err := e.Prepare("SELECT cname FROM cust WHERE region = 'EU'")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exec.Build(p.OptimalPlan(), db, p.Shared.Query, exec.NewSelections(db, other.Shared.Query), nil); err == nil {
		t.Fatal("Build accepted the Selections of another query")
	}
}

// TestSelectionsSizeBytes: Selections charge, from creation, a bitmap
// word per 64 table rows and a fixed slot overhead for each filtered
// relation, and nothing for an unfiltered one.
func TestSelectionsSizeBytes(t *testing.T) {
	db := buildDB(t)
	e := engine.New(db)
	size := func(sqlText string) int64 {
		t.Helper()
		p, err := e.Prepare(sqlText)
		if err != nil {
			t.Fatal(err)
		}
		return exec.NewSelections(db, p.Shared.Query).SizeBytes()
	}
	slot := size("SELECT oid FROM ord WHERE amount > 50") - 8 // ord: 6 rows, one word
	if slot <= 0 {
		t.Fatalf("a filtered relation's slot charges %d bytes", slot)
	}
	if got := size("SELECT oid, qty FROM ord, item WHERE oid = ioid"); got != 0 {
		t.Errorf("no filter: %d bytes, want 0", got)
	}
	if got, want := size("SELECT oid, cname FROM ord, cust WHERE ocid = cid AND amount > 50 AND region = 'EU'"), 2*(slot+8); got != want {
		t.Errorf("two filtered relations: %d bytes, want %d", got, want)
	}
}
