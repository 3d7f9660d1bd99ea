package algebra

import (
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/data"
	"repro/internal/sql"
)

// bindSchema is a small two-table schema for binder tests.
func bindSchema() *catalog.Catalog {
	c := catalog.New()
	c.MustAdd(&catalog.Table{
		Name: "emp",
		Columns: []catalog.Column{
			{Name: "eid", Kind: data.KindInt},
			{Name: "ename", Kind: data.KindString},
			{Name: "dept", Kind: data.KindInt},
			{Name: "salary", Kind: data.KindFloat},
			{Name: "hired", Kind: data.KindDate},
		},
	})
	c.MustAdd(&catalog.Table{
		Name: "dep",
		Columns: []catalog.Column{
			{Name: "did", Kind: data.KindInt},
			{Name: "dname", Kind: data.KindString},
		},
	})
	return c
}

func mustBind(t *testing.T, q string) *Query {
	t.Helper()
	stmt, err := sql.Parse(q)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	bound, err := Build(stmt, bindSchema())
	if err != nil {
		t.Fatalf("bind: %v", err)
	}
	return bound
}

func bindErr(t *testing.T, q string) error {
	t.Helper()
	stmt, err := sql.Parse(q)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	_, err = Build(stmt, bindSchema())
	if err == nil {
		t.Fatalf("bind of %q succeeded, want error", q)
	}
	return err
}

func TestBindFiltersVsJoinPreds(t *testing.T) {
	q := mustBind(t, `SELECT ename FROM emp, dep
		WHERE dept = did AND salary > 1000 AND dname = 'R' AND eid + dept > 0`)
	if len(q.Rels) != 2 {
		t.Fatalf("rels: %d", len(q.Rels))
	}
	// salary > 1000 and eid + dept > 0 reference only emp; dname = 'R'
	// only dep; dept = did crosses.
	if got := len(q.Rels[0].Filters); got != 2 {
		t.Errorf("emp filters = %d, want 2", got)
	}
	if got := len(q.Rels[1].Filters); got != 1 {
		t.Errorf("dep filters = %d, want 1", got)
	}
	if len(q.Preds) != 1 {
		t.Fatalf("join preds = %d, want 1", len(q.Preds))
	}
	p := q.Preds[0]
	if !p.IsEqui {
		t.Error("dept = did not recognized as equi-join")
	}
	if p.LCol.Rel != 0 || p.RCol.Rel != 1 {
		t.Errorf("equi columns oriented wrong: %d, %d", p.LCol.Rel, p.RCol.Rel)
	}
}

func TestBindEquiDetectionOnlyForPlainColumns(t *testing.T) {
	q := mustBind(t, "SELECT ename FROM emp, dep WHERE dept + 0 = did")
	if len(q.Preds) != 1 || q.Preds[0].IsEqui {
		t.Error("computed equality should not be an equi-join key")
	}
}

func TestBindAggregatesAndGrouping(t *testing.T) {
	q := mustBind(t, `SELECT dept, SUM(salary) AS total, COUNT(*) AS n, SUM(salary) AS again
		FROM emp GROUP BY dept ORDER BY total DESC`)
	if len(q.GroupBy) != 1 {
		t.Fatalf("group keys: %d", len(q.GroupBy))
	}
	if _, isCol := q.GroupBy[0].IsColRef(); !isCol {
		t.Error("dept should be a pass-through grouping key")
	}
	// SUM(salary) is deduplicated: two projections share one aggregate.
	if len(q.Aggs) != 2 {
		t.Errorf("aggregates = %d, want 2 (SUM deduped, COUNT)", len(q.Aggs))
	}
	if q.Projections[1].Out.ID != q.Projections[3].Out.ID {
		t.Error("duplicate SUM projections should reference the same output column")
	}
	if q.OrderBy[0].Col != q.Projections[1].Out.ID || !q.OrderBy[0].Desc {
		t.Errorf("ORDER BY total DESC resolved to %+v", q.OrderBy)
	}
	if q.Aggs[0].Out.Kind != data.KindFloat {
		t.Errorf("SUM(float) kind = %s", q.Aggs[0].Out.Kind)
	}
	if q.Aggs[1].Out.Kind != data.KindInt {
		t.Errorf("COUNT kind = %s", q.Aggs[1].Out.Kind)
	}
}

func TestBindComputedGroupKey(t *testing.T) {
	q := mustBind(t, `SELECT YEAR(hired) AS y, COUNT(*) AS n FROM emp
		GROUP BY YEAR(hired) ORDER BY y`)
	if len(q.GroupBy) != 1 {
		t.Fatalf("group keys: %d", len(q.GroupBy))
	}
	if _, isCol := q.GroupBy[0].IsColRef(); isCol {
		t.Error("YEAR(hired) must not be a pass-through key")
	}
	// The SELECT's YEAR(hired) must resolve to the grouping output.
	if q.Projections[0].Out.ID != q.GroupBy[0].Out.ID {
		t.Error("projection of group key should reuse the key's output column")
	}
	if q.OrderBy[0].Col != q.GroupBy[0].Out.ID {
		t.Error("ORDER BY y should resolve to the group key output")
	}
}

func TestBindGroupingErrors(t *testing.T) {
	err := bindErr(t, "SELECT ename, SUM(salary) FROM emp GROUP BY dept")
	if !strings.Contains(err.Error(), "GROUP BY") {
		t.Errorf("error: %v", err)
	}
	bindErr(t, "SELECT SUM(SUM(salary)) FROM emp")
	bindErr(t, "SELECT SUM(ename) FROM emp")
	bindErr(t, "SELECT AVG(salary) FROM emp WHERE SUM(salary) > 1")
}

func TestBindNameResolutionErrors(t *testing.T) {
	bindErr(t, "SELECT nosuch FROM emp")
	bindErr(t, "SELECT emp.nosuch FROM emp")
	bindErr(t, "SELECT x.eid FROM emp")
	bindErr(t, "SELECT eid FROM nosuchtable")
	bindErr(t, "SELECT eid FROM emp, emp")           // duplicate binding
	bindErr(t, "SELECT did FROM dep d1, dep d2")     // ambiguous
	bindErr(t, "SELECT DISTINCT eid FROM emp")       // unsupported
	bindErr(t, "SELECT eid FROM emp ORDER BY eid+1") // not in select list
}

func TestBindAliasedSelfJoin(t *testing.T) {
	stmt, err := sql.Parse(`SELECT d1.dname, d2.dname FROM dep d1, dep d2 WHERE d1.did = d2.did`)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Build(stmt, bindSchema())
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Rels) != 2 || q.Rels[0].Name != "d1" || q.Rels[1].Name != "d2" {
		t.Fatalf("rels: %+v", q.Rels)
	}
	// The two dname projections must reference different columns.
	if q.Projections[0].Out.ID == q.Projections[1].Out.ID {
		t.Error("self-join projections collapsed to one column")
	}
	if !q.Preds[0].IsEqui {
		t.Error("self-join equality not recognized")
	}
}

func TestBindTypeChecking(t *testing.T) {
	bindErr(t, "SELECT eid FROM emp WHERE ename > 5")
	bindErr(t, "SELECT eid FROM emp WHERE ename + 1 > 5")
	bindErr(t, "SELECT eid FROM emp WHERE eid LIKE 'x%'")
	bindErr(t, "SELECT eid FROM emp WHERE NOT salary")
	bindErr(t, "SELECT eid FROM emp WHERE salary")
	bindErr(t, "SELECT YEAR(eid) FROM emp")
	bindErr(t, "SELECT -ename FROM emp")
}

func TestBindLoweringsBetweenIn(t *testing.T) {
	q := mustBind(t, "SELECT eid FROM emp WHERE salary BETWEEN 1 AND 2 AND dept IN (1, 2)")
	// Both lower to boolean trees on the emp relation: two filters.
	if len(q.Rels[0].Filters) != 2 {
		t.Fatalf("filters: %d", len(q.Rels[0].Filters))
	}
	s := AndAll(q.Rels[0].Filters).String()
	for _, want := range []string{">=", "<=", "OR"} {
		if !strings.Contains(s, want) {
			t.Errorf("lowered filters missing %q: %s", want, s)
		}
	}
}

func TestBindDateAndCase(t *testing.T) {
	q := mustBind(t, `SELECT CASE WHEN salary > 100 THEN salary ELSE 0 END AS pay
		FROM emp WHERE hired >= DATE '1994-01-01'`)
	if q.Projections[0].Expr.Kind() != data.KindFloat {
		t.Errorf("CASE kind = %s, want FLOAT (promoted)", q.Projections[0].Expr.Kind())
	}
	f := q.Rels[0].Filters[0].(*BinaryExpr)
	if f.R.(*ConstExpr).Val.K != data.KindDate {
		t.Error("date literal not bound as date")
	}
}

func TestBindJoinOnMergedIntoWhere(t *testing.T) {
	q := mustBind(t, "SELECT ename FROM emp INNER JOIN dep ON dept = did WHERE salary > 10")
	if len(q.Preds) != 1 || !q.Preds[0].IsEqui {
		t.Errorf("ON condition not merged: %+v", q.Preds)
	}
	if len(q.Rels[0].Filters) != 1 {
		t.Errorf("WHERE filter lost: %+v", q.Rels[0].Filters)
	}
}

func TestConnectedAndPredsFor(t *testing.T) {
	q := mustBind(t, "SELECT ename FROM emp, dep WHERE dept = did")
	l, r := SetOf(0), SetOf(1)
	if !q.Connected(l, r) {
		t.Error("joined relations reported disconnected")
	}
	equi, rest := q.PredsFor(l, r)
	if len(equi) != 1 || len(rest) != 0 {
		t.Errorf("PredsFor = %d equi, %d rest", len(equi), len(rest))
	}
	q2 := mustBind(t, "SELECT ename FROM emp, dep WHERE salary > 1")
	if q2.Connected(SetOf(0), SetOf(1)) {
		t.Error("cartesian pair reported connected")
	}
}

func TestBindOrderByBareColumnNotProjected(t *testing.T) {
	q := mustBind(t, "SELECT ename FROM emp ORDER BY eid")
	if len(q.OrderBy) != 1 {
		t.Fatal("order by missing")
	}
	var col Column
	for _, c := range q.Rels[0].Cols {
		if c.ID == q.OrderBy[0].Col {
			col = c
		}
	}
	if col.Name != "eid" {
		t.Errorf("ORDER BY eid resolved to %+v", col)
	}
}
