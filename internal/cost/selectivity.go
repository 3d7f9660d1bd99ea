package cost

import (
	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/data"
	"repro/internal/memo"
)

// Selectivity constants for predicates the statistics cannot resolve.
const (
	defaultEqSel    = 0.005
	defaultRangeSel = 1.0 / 3.0
	likePrefixSel   = 0.05
	likeContainsSel = 0.10
	likeComplexSel  = 0.05
	minSelectivity  = 1e-9
)

// estimator derives cardinalities for every group of a query's memo from
// base-table statistics. Estimates are properties of a relation subset —
// independent of join order — so every operator of a group sees the same
// output cardinality, as the MEMO requires. An estimator lives only
// inside one Fill call.
type estimator struct {
	q *algebra.Query

	// factors maps a relation subset to a multiplicative cardinality
	// correction (absent: 1). The adaptive feedback loop derives them
	// from observed execution cardinalities: a factor f for set s means
	// "the statistics-based estimate for s should be scaled by f".
	factors map[algebra.RelSet]float64
}

// factor returns the correction for a relation subset (1 when none is
// recorded).
func (e *estimator) factor(s algebra.RelSet) float64 {
	if f := e.factors[s]; f > 0 {
		return f
	}
	return 1
}

// groupCard is a group's estimated output cardinality. Cards are
// properties of the group (relation subset plus operator layer), so
// every alternative in a group shares them — the invariant the MEMO's
// costing relies on.
func (e *estimator) groupCard(g *memo.Group) float64 {
	switch g.Kind {
	case memo.GroupScan:
		return e.baseCard(g.RelSet.First())
	case memo.GroupJoin:
		return e.setCard(g.RelSet)
	case memo.GroupAgg:
		return e.aggCard(e.setCard(g.RelSet))
	case memo.GroupRoot:
		// The root projects its child without changing cardinality.
		if e.q.HasAgg() {
			return e.aggCard(e.setCard(g.RelSet))
		}
		return e.setCard(g.RelSet)
	}
	return 0
}

// baseCard is the estimated row count of base relation i after its
// pushed-down filters, scaled by the feedback correction for {i}.
func (e *estimator) baseCard(i int) float64 {
	rel := e.q.Rels[i]
	card := float64(rel.Table.RowCount)
	for _, f := range rel.Filters {
		card *= e.predSelectivity(f)
	}
	// Floor before correcting: the feedback loop records ratios against
	// the floored estimate it actually served (CardOf), so the factor
	// must compose with that value — correcting the raw sub-1-row
	// estimate would swallow most of the factor in the floor.
	if card < 1 {
		card = 1
	}
	card *= e.factor(algebra.SetOf(i))
	if card < 1 {
		card = 1
	}
	return card
}

// setCard is the estimated cardinality of joining the relations in s:
// the product of filtered base cardinalities and the selectivities of all
// join predicates applicable within s, scaled by the feedback correction
// recorded for exactly s (single-relation corrections propagate through
// the baseCard factors).
func (e *estimator) setCard(s algebra.RelSet) float64 {
	card := 1.0
	for i := range s.All() {
		card *= e.baseCard(i)
	}
	for _, p := range e.q.Preds {
		if p.Refs.SubsetOf(s) {
			card *= e.predSelectivity(p.Expr)
		}
	}
	// Floor, then correct, then floor again — mirrors baseCard so the
	// set-level factor composes with the estimate the feedback loop
	// observed (single-relation corrections already propagated through
	// the baseCard product above).
	if card < 1 {
		card = 1
	}
	if !s.Single() {
		card *= e.factor(s)
	}
	if card < 1 {
		card = 1
	}
	return card
}

// aggCard estimates the number of groups the aggregation produces from
// inCard input rows: the product of the grouping keys' distinct counts,
// capped by the input cardinality.
func (e *estimator) aggCard(inCard float64) float64 {
	if len(e.q.GroupBy) == 0 {
		return 1 // scalar aggregate
	}
	groups := 1.0
	for i := range e.q.GroupBy {
		groups *= e.keyNDV(&e.q.GroupBy[i])
	}
	if groups > inCard {
		groups = inCard
	}
	if groups < 1 {
		groups = 1
	}
	return groups
}

func (e *estimator) keyNDV(g *algebra.GroupExpr) float64 {
	switch expr := g.Expr.(type) {
	case *algebra.ColRefExpr:
		if st, ok := e.colStats(expr.Col); ok && st.NDV > 0 {
			return float64(st.NDV)
		}
	case *algebra.YearExpr:
		// YEAR(col): distinct years spanned by the column.
		if cr, ok := expr.X.(*algebra.ColRefExpr); ok {
			if st, ok := e.colStats(cr.Col); ok && !st.Min.IsNull() && !st.Max.IsNull() {
				years := float64(data.Year(st.Max.Int())-data.Year(st.Min.Int())) + 1
				if years >= 1 {
					return years
				}
			}
		}
	}
	return 10 // unknown computed key
}

func (e *estimator) colStats(c algebra.Column) (catalog.ColumnStats, bool) {
	if c.Rel < 0 || c.Rel >= len(e.q.Rels) {
		return catalog.ColumnStats{}, false
	}
	rel := e.q.Rels[c.Rel]
	if c.ColIdx < 0 || c.ColIdx >= len(rel.Table.Columns) {
		return catalog.ColumnStats{}, false
	}
	return rel.Table.Columns[c.ColIdx].Stats, true
}

// predSelectivity estimates the fraction of rows a boolean expression
// keeps. Conjunctions multiply, disjunctions use inclusion-exclusion, and
// leaf comparisons consult NDV and min/max statistics.
func (e *estimator) predSelectivity(s algebra.Scalar) float64 {
	sel := e.predSel(s)
	if sel < minSelectivity {
		sel = minSelectivity
	}
	if sel > 1 {
		sel = 1
	}
	return sel
}

func (e *estimator) predSel(s algebra.Scalar) float64 {
	switch t := s.(type) {
	case *algebra.BinaryExpr:
		switch t.Op {
		case algebra.OpAnd:
			return e.predSel(t.L) * e.predSel(t.R)
		case algebra.OpOr:
			a, b := e.predSel(t.L), e.predSel(t.R)
			return a + b - a*b
		case algebra.OpEq:
			return e.eqSel(t)
		case algebra.OpNe:
			return 1 - e.eqSel(&algebra.BinaryExpr{Op: algebra.OpEq, L: t.L, R: t.R})
		case algebra.OpLt, algebra.OpLe, algebra.OpGt, algebra.OpGe:
			return e.rangeSel(t)
		}
	case *algebra.NotExpr:
		return 1 - e.predSel(t.X)
	case *algebra.LikeExpr:
		sel := likeSel(t.Pattern)
		if t.Negate {
			return 1 - sel
		}
		return sel
	case *algebra.ConstExpr:
		if t.Val.K == data.KindBool {
			if t.Val.Bool() {
				return 1
			}
			return 0
		}
	}
	return defaultRangeSel
}

func likeSel(pattern string) float64 {
	switch algebra.ClassifyLike(pattern) {
	case algebra.LikeExact:
		return defaultEqSel
	case algebra.LikePrefix, algebra.LikeSuffix:
		return likePrefixSel
	case algebra.LikeContains:
		return likeContainsSel
	default:
		return likeComplexSel
	}
}

func (e *estimator) eqSel(t *algebra.BinaryExpr) float64 {
	lc, lok := t.L.(*algebra.ColRefExpr)
	rc, rok := t.R.(*algebra.ColRefExpr)
	switch {
	case lok && rok:
		// Equi-join: 1/max(NDV left, NDV right).
		ln, rn := e.ndvOf(lc.Col), e.ndvOf(rc.Col)
		n := ln
		if rn > n {
			n = rn
		}
		if n < 1 {
			return defaultEqSel
		}
		return 1 / n
	case lok:
		return e.colEqConstSel(lc.Col)
	case rok:
		return e.colEqConstSel(rc.Col)
	}
	// YEAR(col) = const and similar computed equalities.
	if yr, ok := t.L.(*algebra.YearExpr); ok {
		return e.yearEqSel(yr)
	}
	if yr, ok := t.R.(*algebra.YearExpr); ok {
		return e.yearEqSel(yr)
	}
	return defaultEqSel
}

func (e *estimator) yearEqSel(yr *algebra.YearExpr) float64 {
	if cr, ok := yr.X.(*algebra.ColRefExpr); ok {
		if st, ok := e.colStats(cr.Col); ok && !st.Min.IsNull() && !st.Max.IsNull() {
			years := float64(data.Year(st.Max.Int())-data.Year(st.Min.Int())) + 1
			if years >= 1 {
				return 1 / years
			}
		}
	}
	return defaultEqSel
}

func (e *estimator) colEqConstSel(c algebra.Column) float64 {
	n := e.ndvOf(c)
	if n < 1 {
		return defaultEqSel
	}
	return 1 / n
}

func (e *estimator) ndvOf(c algebra.Column) float64 {
	if st, ok := e.colStats(c); ok && st.NDV > 0 {
		return float64(st.NDV)
	}
	return 0
}

// rangeSel estimates col <op> const selectivity by linear interpolation
// between the column's min and max.
func (e *estimator) rangeSel(t *algebra.BinaryExpr) float64 {
	col, cref := t.L.(*algebra.ColRefExpr)
	cst, cons := t.R.(*algebra.ConstExpr)
	op := t.Op
	if !cref || !cons {
		// const <op> col: flip.
		col, cref = t.R.(*algebra.ColRefExpr)
		cst, cons = t.L.(*algebra.ConstExpr)
		if !cref || !cons {
			return defaultRangeSel
		}
		switch op {
		case algebra.OpLt:
			op = algebra.OpGt
		case algebra.OpLe:
			op = algebra.OpGe
		case algebra.OpGt:
			op = algebra.OpLt
		case algebra.OpGe:
			op = algebra.OpLe
		}
	}
	st, ok := e.colStats(col.Col)
	if !ok || st.Min.IsNull() || st.Max.IsNull() {
		return defaultRangeSel
	}
	v, num := cst.Val, numeric
	if v.K == data.KindString {
		// Statistics hold string codes and the constant holds text: the
		// constant gets a code in an overlay of the column's table, so
		// both compare and project by text and the DB's table stays as
		// it is.
		strs := st.Strings.Overlay()
		st.Strings, v = strs, strs.Intern(cst.Text)
		num = func(x data.Value) float64 { return textNumeric(strs.Text(x)) }
	}
	// Prefer the equi-depth histogram; fall back to min/max linear
	// interpolation when none was collected.
	fracBelow, haveHist := st.HistFractionBelow(v, num)
	if !haveHist {
		lo, hi := num(st.Min), num(st.Max)
		v := num(v)
		if hi <= lo {
			return defaultRangeSel
		}
		fracBelow = (v - lo) / (hi - lo)
	}
	if fracBelow < 0 {
		fracBelow = 0
	}
	if fracBelow > 1 {
		fracBelow = 1
	}
	switch op {
	case algebra.OpLt, algebra.OpLe:
		return fracBelow
	default:
		return 1 - fracBelow
	}
}

// numeric projects a non-string value onto the real line.
func numeric(v data.Value) float64 {
	switch v.K {
	case data.KindInt, data.KindDate, data.KindBool:
		return float64(v.Int())
	case data.KindFloat:
		return v.Float()
	default:
		return 0
	}
}

// textNumeric is an order-preserving-ish projection of a string's first
// bytes.
func textNumeric(s string) float64 {
	var x float64
	for i := 0; i < 6; i++ {
		var b byte
		if i < len(s) {
			b = s[i]
		}
		x = x*256 + float64(b)
	}
	return x
}
