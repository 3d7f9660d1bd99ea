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

func TestDedup(t *testing.T) {
	q := testQuery()
	m := New(q)
	g := m.NewGroup(GroupScan, algebra.SetOf(0))
	spec := &ScanSpec{Rel: q.Rels[0]}
	a := m.AddExpr(g, Expr{Op: TableScan, Scan: spec})
	b := m.AddExpr(g, Expr{Op: TableScan, Scan: spec})
	if a != b {
		t.Error("identical operators not deduplicated")
	}
	if len(g.Exprs) != 1 {
		t.Errorf("group has %d exprs after dedup", len(g.Exprs))
	}
	// A different delivered ordering is a different operator.
	c := m.AddExpr(g, Expr{Op: TableScan, Scan: spec, Delivered: algebra.Ordering{{Col: 0}}})
	if c == a {
		t.Error("operators with different properties deduplicated")
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

// TestAddExprDedupContract pins what makes two operators the same: each
// field of the dedup key, changed alone, yields a new operator, and an
// operator equal in every field (orderings compared by content, scan and
// lookup specs by relation, index and key count, join specs by identity)
// returns the existing one.
func TestAddExprDedupContract(t *testing.T) {
	cat := catalog.New()
	for _, name := range []string{"r", "s"} {
		cat.MustAdd(&catalog.Table{
			Name:    name,
			Columns: []catalog.Column{{Name: "k", Kind: data.KindInt}, {Name: "v", Kind: data.KindInt}},
			Indexes: []catalog.Index{{Name: name + "_k", KeyCols: []int{0}}, {Name: name + "_v", KeyCols: []int{1}}},
		})
	}
	q := algebra.NewQuery()
	for i, name := range []string{"r", "s"} {
		tbl, _ := cat.Table(name)
		rel := &algebra.BaseRel{Idx: i, Name: name, Table: tbl}
		rel.Cols = []algebra.Column{
			q.NewBaseColumn("k", data.KindInt, i, 0),
			q.NewBaseColumn("v", data.KindInt, i, 1),
		}
		q.Rels = append(q.Rels, rel)
		q.AllRels = q.AllRels.Add(i)
	}
	r, s := q.Rels[0], q.Rels[1]
	rk, rv, sk := &r.Table.Indexes[0], &r.Table.Indexes[1], &s.Table.Indexes[0]
	o1 := algebra.Ordering{{Col: r.Cols[0].ID}}
	o2 := algebra.Ordering{{Col: s.Cols[0].ID}}
	o1desc := algebra.Ordering{{Col: r.Cols[0].ID, Desc: true}}

	m := New(q)
	gr := m.NewGroup(GroupScan, algebra.SetOf(0))
	gs := m.NewGroup(GroupScan, algebra.SetOf(1))
	g := m.NewGroup(GroupJoin, algebra.SetOf(0, 1))
	spec, spec2 := &JoinSpec{}, &JoinSpec{}

	// base sets every field the key covers; the orderings and specs are
	// rebuilt on each call so only content (or identity, for the join
	// spec) can match.
	base := func() Expr {
		return Expr{
			Op:        MergeJoin,
			Children:  []*Group{gr, gs},
			Scan:      &ScanSpec{Rel: r, Index: rk},
			Join:      spec,
			Lookup:    &LookupSpec{Rel: s, Index: sk, OuterKeys: []algebra.Column{r.Cols[0]}},
			SortOrder: o1.Clone(),
			Delivered: o1.Clone(),
			Required:  []algebra.Ordering{o1.Clone(), nil},
		}
	}
	orig := m.AddExpr(g, base())
	if again := m.AddExpr(g, base()); again != orig {
		t.Fatalf("identical operator not deduplicated: got %s, want %s", again.Name(), orig.Name())
	}

	cases := []struct {
		field  string
		mutate func(*Expr)
	}{
		{"op", func(e *Expr) { e.Op = HashJoin }},
		{"child 0", func(e *Expr) { e.Children = []*Group{gs, gs} }},
		{"child 1", func(e *Expr) { e.Children = []*Group{gr, gr} }},
		{"child count", func(e *Expr) { e.Children = []*Group{gr} }},
		{"scan rel", func(e *Expr) { e.Scan.Rel = s }},
		{"scan index", func(e *Expr) { e.Scan.Index = rv }},
		{"scan without index", func(e *Expr) { e.Scan.Index = nil }},
		{"no scan", func(e *Expr) { e.Scan = nil }},
		{"join spec identity", func(e *Expr) { e.Join = spec2 }},
		{"no join spec", func(e *Expr) { e.Join = nil }},
		{"lookup rel", func(e *Expr) { e.Lookup.Rel = r }},
		{"lookup index", func(e *Expr) { e.Lookup.Index = rv }},
		{"lookup key count", func(e *Expr) { e.Lookup.OuterKeys = append(e.Lookup.OuterKeys, r.Cols[1]) }},
		{"no lookup", func(e *Expr) { e.Lookup = nil }},
		{"sort order", func(e *Expr) { e.SortOrder = o2.Clone() }},
		{"sort order direction", func(e *Expr) { e.SortOrder = o1desc.Clone() }},
		{"no sort order", func(e *Expr) { e.SortOrder = nil }},
		{"delivered", func(e *Expr) { e.Delivered = o2.Clone() }},
		{"delivered longer", func(e *Expr) { e.Delivered = append(o1.Clone(), o2...) }},
		{"no delivered", func(e *Expr) { e.Delivered = nil }},
		{"required 0", func(e *Expr) { e.Required[0] = o2.Clone() }},
		{"required 1", func(e *Expr) { e.Required[1] = o2.Clone() }},
		{"required count", func(e *Expr) { e.Required = e.Required[:1] }},
		{"no required", func(e *Expr) { e.Required = nil }},
	}
	seen := map[*Expr]string{orig: "base"}
	for _, tc := range cases {
		e := base()
		tc.mutate(&e)
		got := m.AddExpr(g, e)
		if prev, dup := seen[got]; dup {
			t.Errorf("changing %s: deduplicated into the %s operator %s", tc.field, prev, got.Name())
			continue
		}
		seen[got] = tc.field
		e = base()
		tc.mutate(&e)
		if again := m.AddExpr(g, e); again != got {
			t.Errorf("changing %s: identical operator not deduplicated (%s, then %s)", tc.field, got.Name(), again.Name())
		}
	}
	if want := len(cases) + 1; len(g.Exprs) != want {
		t.Errorf("group holds %d operators, want %d", len(g.Exprs), want)
	}
	// The same operator in another group is another operator.
	if other := m.AddExpr(gr, base()); other == orig {
		t.Error("operators of different groups deduplicated")
	}
}
