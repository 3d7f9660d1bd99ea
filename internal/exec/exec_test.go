package exec_test

import (
	"context"
	"math"
	"math/big"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/data"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/memo"
	"repro/internal/plan"
	"repro/internal/storage"
)

// buildDB constructs a small orders/customers/items database with enough
// variety (NULLs, duplicates, strings, dates, floats) to exercise every
// operator.
func buildDB(t *testing.T) *storage.DB {
	t.Helper()
	cat := catalog.New()
	cat.MustAdd(&catalog.Table{
		Name: "cust",
		Columns: []catalog.Column{
			{Name: "cid", Kind: data.KindInt},
			{Name: "cname", Kind: data.KindString},
			{Name: "region", Kind: data.KindString},
		},
		Indexes:     []catalog.Index{{Name: "pk_cust", KeyCols: []int{0}, Unique: true}},
		AvgRowBytes: 40,
	})
	cat.MustAdd(&catalog.Table{
		Name: "ord",
		Columns: []catalog.Column{
			{Name: "oid", Kind: data.KindInt},
			{Name: "ocid", Kind: data.KindInt},
			{Name: "amount", Kind: data.KindFloat},
			{Name: "odate", Kind: data.KindDate},
		},
		Indexes: []catalog.Index{
			{Name: "pk_ord", KeyCols: []int{0}, Unique: true},
			{Name: "idx_ord_cid", KeyCols: []int{1}},
		},
		AvgRowBytes: 40,
	})
	cat.MustAdd(&catalog.Table{
		Name: "item",
		Columns: []catalog.Column{
			{Name: "ioid", Kind: data.KindInt},
			{Name: "qty", Kind: data.KindInt},
		},
		Indexes:     []catalog.Index{{Name: "idx_item_oid", KeyCols: []int{0}}},
		AvgRowBytes: 24,
	})
	db := storage.NewDB(cat)
	cust, _ := db.CreateTable("cust")
	ord, _ := db.CreateTable("ord")
	item, _ := db.CreateTable("item")

	customers := []struct {
		id     int64
		name   string
		region string
	}{
		{1, "alpha", "EU"}, {2, "beta", "US"}, {3, "gamma", "EU"}, {4, "delta", "APAC"},
	}
	for _, c := range customers {
		if err := cust.Insert(data.NewInt(c.id), c.name, c.region); err != nil {
			t.Fatal(err)
		}
	}
	d := func(s string) data.Value { return data.NewDate(data.MustParseDate(s)) }
	type o struct {
		id, cid int64
		amt     data.Value
		date    data.Value
	}
	ordersRows := []o{
		{100, 1, data.NewFloat(10.5), d("1994-01-05")},
		{101, 1, data.NewFloat(20.0), d("1994-06-01")},
		{102, 2, data.NewFloat(7.25), d("1995-03-02")},
		{103, 3, data.NewFloat(100.0), d("1995-12-31")},
		{104, 3, data.Null(), d("1996-05-05")},        // NULL amount
		{105, 9, data.NewFloat(3.0), d("1994-02-02")}, // dangling customer
	}
	for _, r := range ordersRows {
		if err := ord.Insert(data.NewInt(r.id), data.NewInt(r.cid), r.amt, r.date); err != nil {
			t.Fatal(err)
		}
	}
	items := [][2]int64{{100, 2}, {100, 3}, {101, 1}, {102, 5}, {103, 4}, {104, 1}}
	for _, it := range items {
		if err := item.Insert(data.NewInt(it[0]), data.NewInt(it[1])); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.ComputeStats(); err != nil {
		t.Fatal(err)
	}
	return db
}

func runSQL(t *testing.T, db *storage.DB, q string) *exec.Result {
	t.Helper()
	exe, err := engine.New(db).Session().Execute(context.Background(), q, nil, exec.Options{})
	if err != nil {
		t.Fatalf("run %q: %v", q, err)
	}
	return exe.Result
}

func rowStrings(res *exec.Result) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		parts := make([]string, len(r))
		for j, v := range r {
			parts[j] = res.Strings.Format(v)
		}
		out[i] = strings.Join(parts, "|")
	}
	return out
}

func TestSelectWithFilterAndOrder(t *testing.T) {
	db := buildDB(t)
	res := runSQL(t, db, "SELECT cname FROM cust WHERE region = 'EU' ORDER BY cname DESC")
	got := rowStrings(res)
	want := []string{"gamma", "alpha"}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("rows = %v, want %v", got, want)
	}
}

func TestJoinGolden(t *testing.T) {
	db := buildDB(t)
	res := runSQL(t, db, `SELECT cname, amount FROM cust, ord
		WHERE cid = ocid AND amount > 8 ORDER BY amount`)
	got := rowStrings(res)
	want := []string{"alpha|10.5", "alpha|20", "gamma|100"}
	if strings.Join(got, ";") != strings.Join(want, ";") {
		t.Errorf("rows = %v, want %v", got, want)
	}
}

func TestDanglingAndNullRowsDoNotJoin(t *testing.T) {
	db := buildDB(t)
	// Order 105 references customer 9 (absent) and must not appear.
	res := runSQL(t, db, "SELECT oid FROM cust, ord WHERE cid = ocid ORDER BY oid")
	got := rowStrings(res)
	want := []string{"100", "101", "102", "103", "104"}
	if strings.Join(got, ";") != strings.Join(want, ";") {
		t.Errorf("rows = %v, want %v", got, want)
	}
}

func TestAggregatesGolden(t *testing.T) {
	db := buildDB(t)
	res := runSQL(t, db, `SELECT region, COUNT(*) AS orders, SUM(amount) AS total,
		MIN(amount) AS lo, MAX(amount) AS hi, AVG(amount) AS mean, COUNT(amount) AS nonnull
		FROM cust, ord WHERE cid = ocid GROUP BY region ORDER BY region`)
	got := rowStrings(res)
	// EU: orders 100,101 (alpha) + 103,104 (gamma); amount NULL in 104 is
	// ignored by SUM/MIN/MAX/AVG/COUNT(amount) but counted by COUNT(*).
	want := []string{
		"EU|4|130.5|10.5|100|43.5|3",
		"US|1|7.25|7.25|7.25|7.25|1",
	}
	if strings.Join(got, ";") != strings.Join(want, ";") {
		t.Errorf("rows = %v, want %v", got, want)
	}
}

func TestScalarAggregateOnEmptyInput(t *testing.T) {
	db := buildDB(t)
	res := runSQL(t, db, "SELECT COUNT(*) AS n, SUM(amount) AS s FROM ord WHERE amount > 1000000")
	got := rowStrings(res)
	if len(got) != 1 || got[0] != "0|NULL" {
		t.Errorf("rows = %v, want [0|NULL]", got)
	}
	// Grouped aggregate over empty input yields no rows.
	res2 := runSQL(t, db, "SELECT ocid, COUNT(*) AS n FROM ord WHERE amount > 1000000 GROUP BY ocid")
	if len(res2.Rows) != 0 {
		t.Errorf("grouped agg on empty input returned %d rows", len(res2.Rows))
	}
}

func TestExpressionsCaseYearLikeBetween(t *testing.T) {
	db := buildDB(t)
	res := runSQL(t, db, `SELECT oid, YEAR(odate) AS y,
		CASE WHEN amount >= 50 THEN 'big' WHEN amount >= 10 THEN 'mid' ELSE 'small' END AS size
		FROM ord WHERE oid BETWEEN 100 AND 103 ORDER BY oid`)
	got := rowStrings(res)
	want := []string{"100|1994|mid", "101|1994|mid", "102|1995|small", "103|1995|big"}
	if strings.Join(got, ";") != strings.Join(want, ";") {
		t.Errorf("rows = %v, want %v", got, want)
	}

	res2 := runSQL(t, db, "SELECT cname FROM cust WHERE cname LIKE '%a' AND cname NOT LIKE 'g%' ORDER BY cname")
	got2 := rowStrings(res2)
	want2 := []string{"alpha", "beta", "delta"}
	if strings.Join(got2, ";") != strings.Join(want2, ";") {
		t.Errorf("rows = %v, want %v", got2, want2)
	}
}

func TestCaseNullWhenNoArmMatches(t *testing.T) {
	db := buildDB(t)
	res := runSQL(t, db, "SELECT CASE WHEN amount > 1000 THEN 1 END AS flag FROM ord WHERE oid = 100")
	if got := rowStrings(res); got[0] != "NULL" {
		t.Errorf("CASE without ELSE = %v, want NULL", got)
	}
}

func TestDivisionByZeroPropagates(t *testing.T) {
	db := buildDB(t)
	_, err := engine.New(db).Session().Execute(context.Background(),
		"SELECT amount / (qty - qty) FROM ord, item WHERE oid = ioid", nil, exec.Options{})
	if err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Errorf("division by zero not propagated: %v", err)
	}
}

func TestThreeValuedLogic(t *testing.T) {
	db := buildDB(t)
	// amount IS NULL for order 104: neither amount > 0 nor NOT(amount > 0)
	// keeps it.
	a := runSQL(t, db, "SELECT oid FROM ord WHERE amount > 0")
	b := runSQL(t, db, "SELECT oid FROM ord WHERE NOT amount > 0")
	for _, rows := range [][]string{rowStrings(a), rowStrings(b)} {
		for _, r := range rows {
			if r == "104" {
				t.Error("NULL comparison leaked a row")
			}
		}
	}
	if len(a.Rows)+len(b.Rows) != 5 {
		t.Errorf("three-valued split: %d + %d rows, want 5 total", len(a.Rows), len(b.Rows))
	}
}

// TestAllPlansSameResultSmall is experiment E8 in miniature: execute the
// ENTIRE space of a two-join aggregation query; every plan must produce
// the optimizer plan's result. This exercises all join implementations,
// both aggregate implementations, index scans, and enforcers.
func TestAllPlansSameResultSmall(t *testing.T) {
	db := buildDB(t)
	e := engine.New(db)
	p, err := e.Prepare(`SELECT region, SUM(amount * qty) AS rev
		FROM cust, ord, item WHERE cid = ocid AND oid = ioid
		GROUP BY region ORDER BY rev DESC`)
	if err != nil {
		t.Fatal(err)
	}
	n := p.Count()
	if !n.IsInt64() || n.Int64() > 500000 {
		t.Fatalf("space too large for exhaustive execution: %s", n)
	}
	reference, err := p.Execute(p.OptimalPlan())
	if err != nil {
		t.Fatal(err)
	}
	if len(reference.Rows) == 0 {
		t.Fatal("reference result empty; test data broken")
	}
	executed := 0
	err = p.Space.Enumerate(func(r *big.Int, pl *plan.Node) bool {
		res, err := p.Execute(pl)
		if err != nil {
			t.Fatalf("plan %s failed: %v\n%s", r, err, pl)
		}
		if !res.Equivalent(reference, 1e-9) {
			t.Fatalf("plan %s produced different rows:\n%s\ngot:\n%svs reference:\n%s",
				r, pl, res, reference)
		}
		executed++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if int64(executed) != n.Int64() {
		t.Errorf("executed %d of %s plans", executed, n)
	}
	t.Logf("executed all %d plans with identical results", executed)
}

func TestDigestIgnoresRowOrder(t *testing.T) {
	db := buildDB(t)
	asc := runSQL(t, db, "SELECT oid FROM ord ORDER BY oid")
	desc := runSQL(t, db, "SELECT oid FROM ord ORDER BY oid DESC")
	if asc.Digest() != desc.Digest() {
		t.Error("unordered digest should ignore row order")
	}
}

// TestNegativeZeroGroupDigest: -0 and 0 are one group key, and whichever
// of them a plan's group keeps, every plan must give the row one digest
// and pass Prepared.Check against the optimal plan, with one key and
// with two, over both aggregate implementations.
func TestNegativeZeroGroupDigest(t *testing.T) {
	negZero := math.Copysign(0, -1)
	db := keyDB(t, keyTable{
		name: "z",
		cols: []catalog.Column{
			{Name: "zid", Kind: data.KindInt}, {Name: "zf", Kind: data.KindFloat},
			{Name: "zg", Kind: data.KindInt}, {Name: "zv", Kind: data.KindInt},
		},
		// An index scan on zid reads 0 first, a table scan -0.
		rows: [][]any{{2, negZero, 1, 1}, {1, 0.0, 1, 2}, {3, negZero, 1, 4}, {4, 1.5, 1, 8}},
	})
	for _, q := range []string{
		"SELECT zf, SUM(zv) AS s FROM z GROUP BY zf",
		"SELECT zf, zg, SUM(zv) AS s FROM z GROUP BY zf, zg",
	} {
		p, err := engine.New(db).Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := p.Execute(p.OptimalPlan())
		if err != nil {
			t.Fatal(err)
		}
		if len(ref.Rows) != 2 {
			t.Fatalf("%s: %d groups, want 2: %v", q, len(ref.Rows), rowStrings(ref))
		}
		used := map[memo.OpKind]int{}
		err = p.Space.Enumerate(func(r *big.Int, pl *plan.Node) bool {
			res, err := p.Execute(pl)
			if err != nil {
				t.Fatalf("plan %s: %v", r, err)
			}
			if err := p.Check(res, ref); err != nil {
				t.Errorf("%s plan %s: %v", q, r, err)
			}
			if res.Digest() != ref.Digest() {
				t.Errorf("%s plan %s digests %v apart from the optimal plan's %v", q, r, rowStrings(res), rowStrings(ref))
			}
			for _, op := range pl.Operators() {
				used[op.Op]++
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if used[memo.HashAgg] == 0 || used[memo.StreamAgg] == 0 {
			t.Errorf("%s: plan space lacks an aggregate implementation: %v", q, used)
		}
	}
}

func TestEquivalentTolerance(t *testing.T) {
	a := &exec.Result{Columns: []string{"x"}, Rows: []data.Row{{data.NewFloat(1.0)}}}
	b := &exec.Result{Columns: []string{"x"}, Rows: []data.Row{{data.NewFloat(1.0 + 1e-12)}}}
	c := &exec.Result{Columns: []string{"x"}, Rows: []data.Row{{data.NewFloat(1.1)}}}
	if !a.Equivalent(b, 1e-9) {
		t.Error("nearly equal floats reported different")
	}
	if a.Equivalent(c, 1e-9) {
		t.Error("clearly different floats reported equal")
	}
	d := &exec.Result{Columns: []string{"x"}, Rows: []data.Row{{data.NewFloat(1.0)}, {data.NewFloat(2.0)}}}
	if a.Equivalent(d, 1e-9) {
		t.Error("different row counts reported equal")
	}
	null1 := &exec.Result{Rows: []data.Row{{data.Null()}}}
	null2 := &exec.Result{Rows: []data.Row{{data.Null()}}}
	if !null1.Equivalent(null2, 1e-9) {
		t.Error("NULL rows should be equivalent")
	}
	// 1.0000049999999 and 1.0000050000001 differ by 2e-13 relative but
	// round to different 6-digit strings; the rows must still pair up
	// by their exact columns.
	strs := data.NewStrings()
	boundary := func(x float64) *exec.Result {
		return &exec.Result{Columns: []string{"x", "s"}, Strings: strs, Rows: []data.Row{
			{data.NewFloat(x), strs.Intern("a")},
			{data.NewFloat(1.000001), strs.Intern("b")},
		}}
	}
	if !boundary(1.0000049999999).Equivalent(boundary(1.0000050000001), 1e-9) {
		t.Error("rows differing within tolerance across a rounding boundary reported different")
	}
}

func TestResultStringRendersTable(t *testing.T) {
	db := buildDB(t)
	res := runSQL(t, db, "SELECT cname, region FROM cust WHERE cid = 1")
	s := res.String()
	for _, want := range []string{"cname", "region", "alpha", "EU", "---"} {
		if !strings.Contains(s, want) {
			t.Errorf("table rendering missing %q:\n%s", want, s)
		}
	}
}

func TestNoOrderByStreamsWithoutSort(t *testing.T) {
	db := buildDB(t)
	res := runSQL(t, db, "SELECT cid FROM cust")
	if len(res.Rows) != 4 {
		t.Errorf("rows = %d", len(res.Rows))
	}
}

// TestIndexLookupJoinExecutes pins the index nested-loop join: find a
// plan that uses it, execute it, and compare with the reference.
func TestIndexLookupJoinExecutes(t *testing.T) {
	db := buildDB(t)
	e := engine.New(db)
	p, err := e.Prepare("SELECT cname, amount FROM cust, ord WHERE cid = ocid ORDER BY amount")
	if err != nil {
		t.Fatal(err)
	}
	reference, err := p.Execute(p.OptimalPlan())
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	err = p.Space.Enumerate(func(r *big.Int, pl *plan.Node) bool {
		uses := false
		for _, op := range pl.Operators() {
			if op.Op == memo.IndexNLJoin {
				uses = true
				break
			}
		}
		if !uses {
			return true
		}
		found++
		res, err := p.Execute(pl)
		if err != nil {
			t.Fatalf("lookup-join plan %s failed: %v\n%s", r, err, pl)
		}
		if !res.Equivalent(reference, 1e-9) {
			t.Fatalf("lookup-join plan %s differs:\n%s", r, pl)
		}
		return found < 40 // cap the walk
	})
	if err != nil {
		t.Fatal(err)
	}
	if found == 0 {
		t.Fatal("no plans using IndexNLJoin in the space")
	}
	t.Logf("executed %d lookup-join plans", found)
}

// TestLookupJoinMultiColumnPrefix exercises a two-column index prefix:
// item has index on (ioid) only, so build a direct composite case via the
// ord pk — joined on oid with duplicates on the outer side.
func TestLookupJoinDuplicateOuterKeys(t *testing.T) {
	db := buildDB(t)
	e := engine.New(db)
	// items join ord: several items share oid 100; the lookup join must
	// emit each pairing once.
	p, err := e.Prepare("SELECT qty, amount FROM item, ord WHERE ioid = oid ORDER BY qty")
	if err != nil {
		t.Fatal(err)
	}
	reference, err := p.Execute(p.OptimalPlan())
	if err != nil {
		t.Fatal(err)
	}
	if len(reference.Rows) != 6 {
		t.Fatalf("reference rows = %d, want 6", len(reference.Rows))
	}
	checked := 0
	err = p.Space.Enumerate(func(r *big.Int, pl *plan.Node) bool {
		for _, op := range pl.Operators() {
			if op.Op == memo.IndexNLJoin {
				res, err := p.Execute(pl)
				if err != nil {
					t.Fatalf("plan %s: %v", r, err)
				}
				if !res.Equivalent(reference, 1e-9) {
					t.Fatalf("plan %s differs:\n%s", r, pl)
				}
				checked++
				return checked < 10
			}
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("no lookup-join plans found")
	}
}
