package memo

import (
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/data"
)

func testQuery() *algebra.Query {
	cat := catalog.New()
	cat.MustAdd(&catalog.Table{
		Name:    "t",
		Columns: []catalog.Column{{Name: "a", Kind: data.KindInt}},
	})
	q := algebra.NewQuery()
	tbl, _ := cat.Table("t")
	rel := &algebra.BaseRel{Idx: 0, Name: "t", Table: tbl}
	rel.Cols = []algebra.Column{q.NewBaseColumn("a", data.KindInt, 0, 0)}
	q.Rels = append(q.Rels, rel)
	q.AllRels = algebra.SetOf(0)
	return q
}

func TestGroupAndExprNumbering(t *testing.T) {
	q := testQuery()
	m := New(q)
	g1 := m.NewGroup(GroupScan, algebra.SetOf(0))
	if g1.ID != 1 {
		t.Errorf("first group ID = %d, want 1", g1.ID)
	}
	e1 := m.AddExpr(g1, Expr{Op: LogicalGet, Scan: &ScanSpec{Rel: q.Rels[0]}})
	e2 := m.AddExpr(g1, Expr{Op: TableScan, Scan: &ScanSpec{Rel: q.Rels[0]}})
	if e1.Name() != "1.1" || e2.Name() != "1.2" {
		t.Errorf("names = %s, %s; want 1.1, 1.2", e1.Name(), e2.Name())
	}
	if e1.ID >= e2.ID {
		t.Error("global IDs not increasing")
	}
}

func TestPhysicalListExcludesLogical(t *testing.T) {
	q := testQuery()
	m := New(q)
	g := m.NewGroup(GroupScan, algebra.SetOf(0))
	m.AddExpr(g, Expr{Op: LogicalGet, Scan: &ScanSpec{Rel: q.Rels[0]}})
	m.AddExpr(g, Expr{Op: TableScan, Scan: &ScanSpec{Rel: q.Rels[0]}})
	sort := m.AddExpr(g, Expr{Op: Sort, Children: []*Group{g}, SortOrder: algebra.Ordering{{Col: 0}}, Delivered: algebra.Ordering{{Col: 0}}})
	if len(g.Physical) != 2 {
		t.Errorf("Physical = %d, want 2", len(g.Physical))
	}
	if g.Physical[0].Op != TableScan || g.Physical[1] != sort {
		t.Errorf("Physical = %s, %s; want the TableScan, then the Sort", g.Physical[0].Describe(), g.Physical[1].Describe())
	}
	if !sort.IsEnforcer() {
		t.Error("Sort not an enforcer")
	}
}

func TestRegisterInterestingOrderDedups(t *testing.T) {
	q := testQuery()
	m := New(q)
	g := m.NewGroup(GroupScan, algebra.SetOf(0))
	o := algebra.Ordering{{Col: 1}}
	if !g.RegisterInterestingOrder(o) {
		t.Error("first registration should be new")
	}
	if g.RegisterInterestingOrder(o.Clone()) {
		t.Error("duplicate registration should be rejected")
	}
	if g.RegisterInterestingOrder(nil) {
		t.Error("empty ordering registered")
	}
	if len(g.InterestingOrders) != 1 {
		t.Errorf("InterestingOrders = %d", len(g.InterestingOrders))
	}
}

func TestOpKindPredicates(t *testing.T) {
	logical := []OpKind{LogicalGet, LogicalJoin, LogicalAgg, LogicalResult}
	for _, k := range logical {
		if !k.Logical() || k.Physical() {
			t.Errorf("%s should be logical", k)
		}
	}
	physical := []OpKind{TableScan, IndexScan, HashJoin, MergeJoin, NestedLoopJoin, HashAgg, StreamAgg, Sort, Result}
	for _, k := range physical {
		if k.Logical() || !k.Physical() {
			t.Errorf("%s should be physical", k)
		}
	}
	if !Sort.Enforcer() || TableScan.Enforcer() {
		t.Error("enforcer predicate wrong")
	}
}

func TestJoinSpecKeysOrientation(t *testing.T) {
	q := testQuery()
	colL := algebra.Column{ID: 10, Rel: 0}
	colR := algebra.Column{ID: 20, Rel: 1}
	spec := &JoinSpec{Equi: []*algebra.PredInfo{{LCol: colL, RCol: colR, IsEqui: true}}}
	l, r := spec.Keys(algebra.SetOf(0))
	if l[0].ID != 10 || r[0].ID != 20 {
		t.Errorf("Keys(left={0}) = %v, %v", l, r)
	}
	// Flip: when relation 1 is the left side the keys swap.
	l, r = spec.Keys(algebra.SetOf(1))
	if l[0].ID != 20 || r[0].ID != 10 {
		t.Errorf("Keys(left={1}) = %v, %v", l, r)
	}
	_ = q
}

func TestStatsAndDump(t *testing.T) {
	q := testQuery()
	m := New(q)
	g := m.NewGroup(GroupScan, algebra.SetOf(0))
	m.AddExpr(g, Expr{Op: LogicalGet, Scan: &ScanSpec{Rel: q.Rels[0]}})
	m.AddExpr(g, Expr{Op: TableScan, Scan: &ScanSpec{Rel: q.Rels[0]}})
	m.AddExpr(g, Expr{Op: Sort, Children: []*Group{g}, SortOrder: algebra.Ordering{{Col: 0}}, Delivered: algebra.Ordering{{Col: 0}}})
	st := m.Stats()
	if st.Groups != 1 || st.LogicalOps != 1 || st.PhysicalOps != 2 || st.EnforcerOps != 1 {
		t.Errorf("Stats = %+v", st)
	}
	dump := m.DumpAnnotated(nil)
	for _, want := range []string{"Group 1", "1.1", "TableScan(t)", "Sort(#0)"} {
		if !strings.Contains(dump, want) {
			t.Errorf("DumpAnnotated(nil) missing %q:\n%s", want, dump)
		}
	}
}
