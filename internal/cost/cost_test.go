package cost

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/data"
	"repro/internal/memo"
	"repro/internal/sql"
)

// costSchema builds a schema with statistics set by hand so selectivity
// arithmetic is checkable exactly.
func costSchema() *catalog.Catalog {
	c := catalog.New()
	strs := data.NewStrings()
	c.MustAdd(&catalog.Table{
		Name: "r",
		Columns: []catalog.Column{
			{Name: "rk", Kind: data.KindInt, Stats: catalog.ColumnStats{NDV: 1000, Min: data.NewInt(0), Max: data.NewInt(999)}},
			{Name: "rv", Kind: data.KindInt, Stats: catalog.ColumnStats{NDV: 100, Min: data.NewInt(0), Max: data.NewInt(99)}},
			{Name: "rs", Kind: data.KindString, Stats: catalog.ColumnStats{NDV: 50, Min: strs.Intern("a"), Max: strs.Intern("z"), Strings: strs}},
			{Name: "rd", Kind: data.KindDate, Stats: catalog.ColumnStats{NDV: 2000, Min: data.NewDate(data.MustParseDate("1992-01-01")), Max: data.NewDate(data.MustParseDate("1998-12-31"))}},
		},
		RowCount:    1000,
		AvgRowBytes: 64,
	})
	c.MustAdd(&catalog.Table{
		Name: "s",
		Columns: []catalog.Column{
			{Name: "sk", Kind: data.KindInt, Stats: catalog.ColumnStats{NDV: 500, Min: data.NewInt(0), Max: data.NewInt(999)}},
		},
		RowCount:    500,
		AvgRowBytes: 32,
	})
	return c
}

func bindQuery(t *testing.T, text string) *algebra.Query {
	t.Helper()
	stmt, err := sql.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	q, err := algebra.Build(stmt, costSchema())
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestEqualityselectivity(t *testing.T) {
	q := bindQuery(t, "SELECT rk FROM r WHERE rv = 5")
	est := &estimator{q: q}
	sel := est.predSelectivity(q.Rels[0].Filters[0])
	if sel != 0.01 {
		t.Errorf("col=const selectivity = %g, want 1/NDV = 0.01", sel)
	}
}

func TestJoinSelectivity(t *testing.T) {
	q := bindQuery(t, "SELECT rk FROM r, s WHERE rk = sk")
	est := &estimator{q: q}
	sel := est.predSelectivity(q.Preds[0].Expr)
	if sel != 0.001 {
		t.Errorf("join selectivity = %g, want 1/max(1000,500)", sel)
	}
	// Join cardinality: 1000 * 500 / 1000 = 500.
	if card := est.setCard(algebra.SetOf(0, 1)); card != 500 {
		t.Errorf("join card = %g, want 500", card)
	}
}

func TestRangeSelectivityInterpolates(t *testing.T) {
	q := bindQuery(t, "SELECT rk FROM r WHERE rv < 25")
	est := &estimator{q: q}
	sel := est.predSelectivity(q.Rels[0].Filters[0])
	if sel < 0.2 || sel > 0.3 {
		t.Errorf("range selectivity = %g, want ~0.25", sel)
	}
	// Flipped constant side: 25 > rv is the same predicate.
	q2 := bindQuery(t, "SELECT rk FROM r WHERE 25 > rv")
	sel2 := est.predSelectivity(q2.Rels[0].Filters[0])
	if sel2 != sel {
		t.Errorf("flipped range selectivity %g != %g", sel2, sel)
	}
}

// TestStringRangeSelectivityReadsText: a string range interpolates
// between the text of the column's bounds; the constant, absent from
// the column's table, is coded in an overlay and never enters it.
func TestStringRangeSelectivityReadsText(t *testing.T) {
	q := bindQuery(t, "SELECT rk FROM r WHERE rs < 'm'")
	est := &estimator{q: q}
	st := q.Rels[0].Table.Columns[2].Stats
	before := st.Strings.Len()
	sel := est.predSelectivity(q.Rels[0].Filters[0])
	a, m, z := textNumeric("a"), textNumeric("m"), textNumeric("z")
	if want := (m - a) / (z - a); sel != want {
		t.Errorf("string range selectivity = %g, want %g", sel, want)
	}
	if st.Strings.Len() != before {
		t.Errorf("estimating grew the column's string table from %d to %d", before, st.Strings.Len())
	}
}

func TestBooleanCombinators(t *testing.T) {
	q := bindQuery(t, "SELECT rk FROM r WHERE rv = 5 OR rv = 6")
	est := &estimator{q: q}
	sel := est.predSelectivity(q.Rels[0].Filters[0])
	want := 0.01 + 0.01 - 0.01*0.01
	if diff := sel - want; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("OR selectivity = %g, want %g", sel, want)
	}
	q2 := bindQuery(t, "SELECT rk FROM r WHERE NOT rv = 5")
	if got := est.predSelectivity(q2.Rels[0].Filters[0]); got != 0.99 {
		t.Errorf("NOT selectivity = %g, want 0.99", got)
	}
}

func TestLikeSelectivityByShape(t *testing.T) {
	est := &estimator{q: bindQuery(t, "SELECT rk FROM r")}
	mk := func(pattern string) algebra.Scalar {
		q := bindQuery(t, "SELECT rk FROM r WHERE rs LIKE '"+pattern+"'")
		return q.Rels[0].Filters[0]
	}
	contains := est.predSelectivity(mk("%x%"))
	prefix := est.predSelectivity(mk("x%"))
	exact := est.predSelectivity(mk("xyz"))
	if !(exact < prefix && prefix < contains) {
		t.Errorf("LIKE selectivities not ordered: exact %g, prefix %g, contains %g", exact, prefix, contains)
	}
}

func TestYearEqSelectivity(t *testing.T) {
	q := bindQuery(t, "SELECT rk FROM r WHERE YEAR(rd) = 1995")
	est := &estimator{q: q}
	sel := est.predSelectivity(q.Rels[0].Filters[0])
	// 1992..1998 spans 7 years.
	want := 1.0 / 7.0
	if diff := sel - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("YEAR= selectivity = %g, want %g", sel, want)
	}
}

func TestSelectivityBoundsProperty(t *testing.T) {
	// Every estimate stays in (0, 1].
	q := bindQuery(t, "SELECT rk FROM r WHERE rv = 1 AND rv < 5 AND rs LIKE '%q%' AND NOT rv = 2")
	est := &estimator{q: q}
	f := func(x uint8) bool {
		for _, p := range q.Rels[0].Filters {
			s := est.predSelectivity(p)
			if s <= 0 || s > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5}); err != nil {
		t.Error(err)
	}
}

func TestBaseCardAppliesFilters(t *testing.T) {
	q := bindQuery(t, "SELECT rk FROM r WHERE rv = 5")
	est := &estimator{q: q}
	if card := est.baseCard(0); card != 10 {
		t.Errorf("filtered base card = %g, want 1000 * 0.01 = 10", card)
	}
}

func TestSetCardMemoizedAndOrderIndependent(t *testing.T) {
	q := bindQuery(t, "SELECT rk FROM r, s WHERE rk = sk AND rv = 3")
	est := &estimator{q: q}
	a := est.setCard(algebra.SetOf(0, 1))
	b := est.setCard(algebra.SetOf(0, 1))
	if a != b {
		t.Error("SetCard not deterministic")
	}
	// Card is a property of the set: join selectivity applied once.
	// 1000*0.01 (rv=3) * 500 * (1/1000) = 5.
	if a != 5 {
		t.Errorf("SetCard = %g, want 5", a)
	}
}

func TestAggCard(t *testing.T) {
	q := bindQuery(t, "SELECT rv, COUNT(*) AS c FROM r GROUP BY rv")
	est := &estimator{q: q}
	if got := est.aggCard(1000); got != 100 {
		t.Errorf("AggCard = %g, want NDV(rv) = 100", got)
	}
	if got := est.aggCard(40); got != 40 {
		t.Errorf("AggCard capped = %g, want input card 40", got)
	}
	scalar := bindQuery(t, "SELECT COUNT(*) AS c FROM r")
	est2 := &estimator{q: scalar}
	if got := est2.aggCard(1000); got != 1 {
		t.Errorf("scalar AggCard = %g, want 1", got)
	}
}

// TestHistogramRangeSelectivity: with skewed data, the equi-depth
// histogram gives a far better range estimate than min/max interpolation
// would.
func TestHistogramRangeSelectivity(t *testing.T) {
	c := costSchema()
	tbl, _ := c.Table("r")
	// 90% of rv values are <= 10 even though max is 99: fake an
	// equi-depth histogram reflecting that skew.
	bounds := make([]data.Value, 16)
	for i := 0; i < 14; i++ {
		bounds[i] = data.NewInt(int64(i/2 + 1)) // dense low values
	}
	bounds[14] = data.NewInt(50)
	bounds[15] = data.NewInt(99)
	tbl.Columns[1].Stats.HistBounds = bounds

	stmt, err := sql.Parse("SELECT rk FROM r WHERE rv < 10")
	if err != nil {
		t.Fatal(err)
	}
	q, err := algebra.Build(stmt, c)
	if err != nil {
		t.Fatal(err)
	}
	est := &estimator{q: q}
	sel := est.predSelectivity(q.Rels[0].Filters[0])
	// Min/max interpolation would say ~0.10; the histogram knows ~14/16
	// of the mass is below 10.
	if sel < 0.5 {
		t.Errorf("histogram-based selectivity = %g, want > 0.5 for skewed data", sel)
	}
}

// TestHistFractionBelowEdges covers the catalog-side interpolation.
func TestHistFractionBelowEdges(t *testing.T) {
	st := catalog.ColumnStats{
		Min: data.NewInt(0), Max: data.NewInt(100),
		HistBounds: []data.Value{data.NewInt(10), data.NewInt(20), data.NewInt(50), data.NewInt(100)},
	}
	num := func(v data.Value) float64 { return float64(v.Int()) }
	if f, ok := st.HistFractionBelow(data.NewInt(200), num); !ok || f != 1 {
		t.Errorf("above max: %g, %v", f, ok)
	}
	if f, ok := st.HistFractionBelow(data.NewInt(0), num); !ok || f > 0.01 {
		t.Errorf("at min: %g, %v", f, ok)
	}
	mid, ok := st.HistFractionBelow(data.NewInt(35), num)
	if !ok || mid < 0.5 || mid > 0.75 {
		t.Errorf("mid value fraction = %g", mid)
	}
	empty := catalog.ColumnStats{}
	if _, ok := empty.HistFractionBelow(data.NewInt(1), num); ok {
		t.Error("histogram reported for empty stats")
	}
}

// TestCombineFormulas pins the structural properties of the cost model
// that produce Table 1's shapes, using a real optimized memo.
func TestCombineFormulas(t *testing.T) {
	stmt, err := sql.Parse("SELECT rk FROM r, s WHERE rk = sk")
	if err != nil {
		t.Fatal(err)
	}
	q, err := algebra.Build(stmt, costSchema())
	if err != nil {
		t.Fatal(err)
	}
	est := &estimator{q: q}

	// Build a minimal memo by hand: two scans and the three join kinds.
	m := memo.New(q)
	g1 := m.NewGroup(memo.GroupScan, algebra.SetOf(0))
	g2 := m.NewGroup(memo.GroupScan, algebra.SetOf(1))
	gj := m.NewGroup(memo.GroupJoin, algebra.SetOf(0, 1))

	scan1 := m.AddExpr(g1, memo.Expr{Op: memo.TableScan, Scan: &memo.ScanSpec{Rel: q.Rels[0]}})
	spec := &memo.JoinSpec{Equi: q.Preds}
	children := []*memo.Group{g1, g2}
	hj := m.AddExpr(gj, memo.Expr{Op: memo.HashJoin, Children: children, Join: spec})
	nl := m.AddExpr(gj, memo.Expr{Op: memo.NestedLoopJoin, Children: children, Join: spec})

	tab, err := Fill(m, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Cards[g1.ID] != est.baseCard(0) || tab.Cards[gj.ID] != est.setCard(algebra.SetOf(0, 1)) {
		t.Errorf("Fill cards %v disagree with the estimator", tab.Cards)
	}

	childCosts := []float64{100, 50}
	hjCost, err := tab.Combine(hj, childCosts)
	if err != nil {
		t.Fatal(err)
	}
	nlCost, err := tab.Combine(nl, childCosts)
	if err != nil {
		t.Fatal(err)
	}
	// The NL join re-executes its inner child per outer row: its cost
	// must include outerCard * innerCost, dominating the hash join.
	if outer := tab.Cards[g1.ID]; nlCost < outer*childCosts[1] {
		t.Errorf("NL cost %g misses the rescan term (outer %g x inner cost %g)", nlCost, outer, childCosts[1])
	}
	if nlCost <= hjCost {
		t.Errorf("NL (%g) should dominate hash join (%g) here", nlCost, hjCost)
	}

	// Scan cost charges pages + per-row CPU.
	sc := tab.Locals[scan1.ID]
	wantMin := q.Rels[0].Table.Pages(pageBytes) * seqPageCost
	if sc < wantMin {
		t.Errorf("scan cost %g below its I/O floor %g", sc, wantMin)
	}

	// Combine must reject arity mismatches.
	if _, err := tab.Combine(hj, []float64{1}); err == nil {
		t.Error("arity mismatch accepted")
	}
}

// TestAffineForm pins each operator's affine cost form: its local cost,
// and an inner coefficient of max(1, outer card) on a nested-loop join
// and 1 elsewhere; Combine sums exactly (local + c0) + inner·c1, and an
// operator outside the overlay's memo is an error.
func TestAffineForm(t *testing.T) {
	stmt, err := sql.Parse("SELECT rk FROM r, s WHERE rk = sk")
	if err != nil {
		t.Fatal(err)
	}
	q, err := algebra.Build(stmt, costSchema())
	if err != nil {
		t.Fatal(err)
	}
	m := memo.New(q)
	g1 := m.NewGroup(memo.GroupScan, algebra.SetOf(0))
	g2 := m.NewGroup(memo.GroupScan, algebra.SetOf(1))
	gj := m.NewGroup(memo.GroupJoin, algebra.SetOf(0, 1))
	scan := m.AddExpr(g1, memo.Expr{Op: memo.TableScan, Scan: &memo.ScanSpec{Rel: q.Rels[0]}})
	spec := &memo.JoinSpec{Equi: q.Preds}
	children := []*memo.Group{g1, g2}
	hj := m.AddExpr(gj, memo.Expr{Op: memo.HashJoin, Children: children, Join: spec})
	nl := m.AddExpr(gj, memo.Expr{Op: memo.NestedLoopJoin, Children: children, Join: spec})
	tab, err := Fill(m, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		e         *memo.Expr
		wantInner float64
	}{
		{scan, 1},
		{hj, 1},
		{nl, math.Max(1, tab.Cards[g1.ID])},
	} {
		local, inner, ok := tab.Affine(tc.e)
		if !ok {
			t.Fatalf("%s: outside the overlay", tc.e.Name())
		}
		if local != tab.Locals[tc.e.ID] || inner != tc.wantInner {
			t.Errorf("%s: affine (%g, %g), want (%g, %g)", tc.e.Name(), local, inner, tab.Locals[tc.e.ID], tc.wantInner)
		}
		cc := []float64{100.25, 50.5}[:len(tc.e.Children)]
		want := local
		if len(cc) > 0 {
			want += cc[0]
		}
		if len(cc) > 1 {
			want += inner * cc[1]
		}
		if got, err := tab.Combine(tc.e, cc); err != nil || math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: Combine = %v (%v), want %v", tc.e.Name(), got, err, want)
		}
	}
	if tab.Inner[nl.ID] <= 1 {
		t.Errorf("nested-loop inner coefficient %g: the outer group should hold more than one row", tab.Inner[nl.ID])
	}
	outside := &memo.Expr{ID: len(tab.Locals), Op: memo.TableScan, Group: g1}
	if _, _, ok := tab.Affine(outside); ok {
		t.Error("operator outside the overlay's memo accepted")
	}
	if _, err := tab.Combine(outside, nil); err == nil {
		t.Error("Combine accepted an operator outside the overlay's memo")
	}
}

// TestLookupJoinCostCrossover: an index NL join beats a hash join for a
// tiny outer and loses for a huge one — the classic access-path
// crossover that gives the full-rule-set spaces their sharper optima.
func TestLookupJoinCostCrossover(t *testing.T) {
	stmt, err := sql.Parse("SELECT rk FROM s, r WHERE sk = rk")
	if err != nil {
		t.Fatal(err)
	}
	cat := costSchema()
	tbl, _ := cat.Table("r")
	tbl.Indexes = []catalog.Index{{Name: "pk_r", KeyCols: []int{0}, Unique: true}}
	q, err := algebra.Build(stmt, cat)
	if err != nil {
		t.Fatal(err)
	}
	est := &estimator{q: q}

	m := memo.New(q)
	gOuter := m.NewGroup(memo.GroupScan, algebra.SetOf(0))
	gInner := m.NewGroup(memo.GroupScan, algebra.SetOf(1))
	gj := m.NewGroup(memo.GroupJoin, algebra.SetOf(0, 1))

	spec := &memo.JoinSpec{Equi: q.Preds}
	lk, rk := spec.Keys(algebra.SetOf(0))
	lookup := m.AddExpr(gj, memo.Expr{
		Op: memo.IndexNLJoin, Children: []*memo.Group{gOuter}, Join: spec,
		Lookup: &memo.LookupSpec{Rel: q.Rels[1], Index: &tbl.Indexes[0], OuterKeys: lk, InnerKeys: rk},
	})
	hj := m.AddExpr(gj, memo.Expr{Op: memo.HashJoin, Children: []*memo.Group{gOuter, gInner}, Join: spec})

	tab := newTables(m)
	tab.Cards[gInner.ID] = est.baseCard(1)
	tab.Cards[gj.ID] = est.setCard(algebra.SetOf(0, 1))
	md := &model{est: est, tab: tab}

	costAt := func(outerCard float64) (lkC, hjC float64) {
		tab.Cards[gOuter.ID] = outerCard
		if err := md.fillLocals(m); err != nil {
			t.Fatal(err)
		}
		var err error
		lkC, err = tab.Combine(lookup, []float64{10})
		if err != nil {
			t.Fatal(err)
		}
		hjC, err = tab.Combine(hj, []float64{10, 50})
		if err != nil {
			t.Fatal(err)
		}
		return lkC, hjC
	}
	smallLk, smallHj := costAt(3)
	if smallLk >= smallHj {
		t.Errorf("tiny outer: lookup (%g) should beat hash (%g)", smallLk, smallHj)
	}
	bigLk, bigHj := costAt(1e6)
	if bigLk <= bigHj {
		t.Errorf("huge outer: hash (%g) should beat lookup (%g)", bigHj, bigLk)
	}
}

// TestSortSpillPenalty: sorting beyond working memory costs extra I/O.
func TestSortSpillPenalty(t *testing.T) {
	stmt, err := sql.Parse("SELECT rk FROM r")
	if err != nil {
		t.Fatal(err)
	}
	q, err := algebra.Build(stmt, costSchema())
	if err != nil {
		t.Fatal(err)
	}
	est := &estimator{q: q}
	m := memo.New(q)
	g := m.NewGroup(memo.GroupScan, algebra.SetOf(0))
	sortExpr := m.AddExpr(g, memo.Expr{
		Op: memo.Sort, Children: []*memo.Group{g},
		SortOrder: algebra.Ordering{{Col: q.Rels[0].Cols[0].ID}},
		Delivered: algebra.Ordering{{Col: q.Rels[0].Cols[0].ID}},
	})
	tab := newTables(m)
	md := &model{est: est, tab: tab}
	tab.Cards[g.ID] = 1000
	small, err := md.local(sortExpr)
	if err != nil {
		t.Fatal(err)
	}
	tab.Cards[g.ID] = 10_000_000 // far past MemoryPages at 64B rows
	big, err := md.local(sortExpr)
	if err != nil {
		t.Fatal(err)
	}
	perRowSmall := small / (1000 * 10) // log2(1000) ~ 10
	perRowBig := big / (10_000_000 * 23)
	if perRowBig <= perRowSmall {
		t.Errorf("no spill penalty visible: %g vs %g per row-compare", perRowBig, perRowSmall)
	}
}
