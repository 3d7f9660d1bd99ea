package algebra

import (
	"fmt"
	"strings"

	"repro/internal/catalog"
	"repro/internal/data"
)

// AggFunc enumerates the supported aggregate functions.
type AggFunc uint8

// Aggregate function codes.
const (
	AggSum AggFunc = iota
	AggCount
	AggAvg
	AggMin
	AggMax
)

var aggNames = [...]string{"SUM", "COUNT", "AVG", "MIN", "MAX"}

// String returns the SQL name of the aggregate.
func (f AggFunc) String() string { return aggNames[f] }

// AggExpr is one aggregate computed by the grouping operator. Arg is nil
// for COUNT(*). Out is the derived column holding the aggregate's value.
type AggExpr struct {
	Fn  AggFunc
	Arg Scalar
	Out Column
}

// String renders e.g. "SUM((l_extendedprice * (1 - l_discount)))".
func (a *AggExpr) String() string {
	if a.Arg == nil {
		return a.Fn.String() + "(*)"
	}
	return a.Fn.String() + "(" + a.Arg.String() + ")"
}

// GroupExpr is one grouping key. Simple keys are bare column references;
// TPC-H Q7/Q8/Q9 group by YEAR(date), a computed key. Out is the derived
// column the key is exposed as above the aggregate.
type GroupExpr struct {
	Expr Scalar
	Out  Column
}

// IsColRef reports whether the key is a bare base-column reference, in
// which case stream aggregation can require the child sorted on it.
func (g *GroupExpr) IsColRef() (Column, bool) {
	if cr, ok := g.Expr.(*ColRefExpr); ok && cr.Col.Rel >= 0 {
		return cr.Col, true
	}
	return Column{}, false
}

// Projection is one output column of the query: a scalar over base
// columns, grouping keys, and aggregate outputs.
type Projection struct {
	Expr Scalar
	Name string
	Out  Column // equals the underlying column for pass-through projections
}

// BaseRel is one FROM-list entry after binding: the table, the alias it
// is visible under, its bound columns (with fresh global IDs), and the
// single-relation filters pushed down onto it.
type BaseRel struct {
	Idx     int
	Name    string // alias, or table name when no alias
	Table   *catalog.Table
	Cols    []Column
	Filters []Scalar
}

// PredInfo is a join predicate: a conjunct of the WHERE clause that
// references two or more base relations. Equi-join conjuncts additionally
// carry the key pair so hash/merge joins can be generated.
type PredInfo struct {
	Expr Scalar
	Refs RelSet
	// Equi-join decomposition (valid when IsEqui).
	IsEqui     bool
	LCol, RCol Column // LCol.Rel < RCol.Rel
}

// Query is the normalized, bound form of a SELECT statement: the join
// graph over base relations plus the aggregation and projection layers
// above it. The optimizer enumerates join orders and physical operators
// from this; it never looks at SQL syntax again.
type Query struct {
	Rels  []*BaseRel
	Preds []*PredInfo

	GroupBy []GroupExpr
	Aggs    []*AggExpr

	Projections []Projection
	OrderBy     Ordering // over projection output columns

	// AllRels is the set of every base relation.
	AllRels RelSet

	nextCol ColID
}

// NewQuery returns an empty query ready for binding.
func NewQuery() *Query { return &Query{} }

// NewColumn allocates a derived column with a fresh ID.
func (q *Query) NewColumn(name string, kind data.Kind) Column {
	c := Column{ID: q.nextCol, Name: name, Kind: kind, Rel: -1, ColIdx: -1}
	q.nextCol++
	return c
}

// NewBaseColumn allocates a column bound to a base-relation position.
func (q *Query) NewBaseColumn(name string, kind data.Kind, rel, colIdx int) Column {
	c := Column{ID: q.nextCol, Name: name, Kind: kind, Rel: rel, ColIdx: colIdx}
	q.nextCol++
	return c
}

// NumColumns returns the number of column IDs allocated so far: every
// column of the query has an ID below it.
func (q *Query) NumColumns() int { return int(q.nextCol) }

// HasAgg reports whether the query aggregates.
func (q *Query) HasAgg() bool { return len(q.Aggs) > 0 || len(q.GroupBy) > 0 }

// PredsFor returns, among predicates applicable at subset s (refs ⊆ s),
// those that are not applicable at either side of the partition (l, r) —
// i.e. the predicates a join of l and r must apply. Equi predicates whose
// columns straddle the cut are returned in equi; everything else in rest.
func (q *Query) PredsFor(l, r RelSet) (equi []*PredInfo, rest []*PredInfo) {
	s := l.Union(r)
	for _, p := range q.Preds {
		if !p.Refs.SubsetOf(s) || p.Refs.SubsetOf(l) || p.Refs.SubsetOf(r) {
			continue
		}
		if p.IsEqui && sideOf(p.LCol.Rel, l, r) != sideOf(p.RCol.Rel, l, r) {
			equi = append(equi, p)
		} else {
			rest = append(rest, p)
		}
	}
	return equi, rest
}

// Connected reports whether some join predicate crosses the cut between
// l and r — the test that excludes Cartesian products when the search
// space disallows them (Table 1's first four rows).
func (q *Query) Connected(l, r RelSet) bool {
	s := l.Union(r)
	for _, p := range q.Preds {
		if p.Refs.SubsetOf(s) && !p.Refs.SubsetOf(l) && !p.Refs.SubsetOf(r) {
			return true
		}
	}
	return false
}

func sideOf(rel int, l, r RelSet) int {
	if l.Has(rel) {
		return 0
	}
	if r.Has(rel) {
		return 1
	}
	return 2
}

// OutputNames returns the result column headers.
func (q *Query) OutputNames() []string {
	out := make([]string, len(q.Projections))
	for i := range q.Projections {
		out[i] = q.Projections[i].Name
	}
	return out
}

// String summarizes the normalized query for debugging.
func (q *Query) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "rels=%d preds=%d aggs=%d groupby=%d proj=%d orderby=%s",
		len(q.Rels), len(q.Preds), len(q.Aggs), len(q.GroupBy), len(q.Projections), q.OrderBy)
	return sb.String()
}
