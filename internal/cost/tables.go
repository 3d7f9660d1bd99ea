package cost

import (
	"fmt"
	"math"

	"repro/internal/memo"
)

// Tables is a cost overlay over a shared memo: the per-group estimated
// cardinalities and each physical operator's affine cost form (its
// local cost and its inner child's coefficient, see Affine), built by
// Fill. Keeping them out of the memo lets any number of costings —
// different cost parameters, different statistics versions, different
// feedback epochs — coexist over one immutable counted structure
// without mutating it.
//
// Cards is indexed by memo.Group.ID, Locals and Inner by memo.Expr.ID
// (both IDs are dense creation sequences). A Tables value is immutable
// after construction and safe for concurrent readers.
type Tables struct {
	Cards  []float64 // Cards[g.ID] = estimated output rows of group g
	Locals []float64 // Locals[e.ID] = operator e's own cost contribution
	Inner  []float64 // Inner[e.ID] = the coefficient of e's child 1 (see Affine)
}

// newTables sizes an overlay for a memo.
func newTables(m *memo.Memo) *Tables {
	maxGroup, maxExpr := 0, 0
	for _, g := range m.Groups {
		if g.ID > maxGroup {
			maxGroup = g.ID
		}
		for _, e := range g.Exprs {
			if e.ID > maxExpr {
				maxExpr = e.ID
			}
		}
	}
	return &Tables{
		Cards:  make([]float64, maxGroup+1),
		Locals: make([]float64, maxExpr+1),
		Inner:  make([]float64, maxExpr+1),
	}
}

// CardOf returns the overlay cardinality of a group (0 for groups
// outside the overlay's range, which cannot occur for a memo the
// overlay was sized for).
func (t *Tables) CardOf(g *memo.Group) float64 {
	if g.ID < len(t.Cards) {
		return t.Cards[g.ID]
	}
	return 0
}

// Affine returns physical operator e's cost as an affine form in the
// full costs of its child sub-plans: total = local + Σ_i coef_i·child_i.
// Every coefficient is 1 except that of a nested-loop join's inner
// child (i = 1), which the join re-executes once per outer row: inner =
// max(1, card(outer group)), a constant per group that Fill stores
// beside the local cost. For every other operator inner is 1. The form
// is the whole cost model as Combine and plan.CostWith fold it. ok is
// false for an operator outside the overlay's memo. Affine is small
// enough to inline into a fold's loop.
func (t *Tables) Affine(e *memo.Expr) (local, inner float64, ok bool) {
	if id := e.ID; id < len(t.Locals) && id < len(t.Inner) {
		return t.Locals[id], t.Inner[id], true
	}
	return 0, 0, false
}

// innerCoef is the coefficient of e's child 1 in its affine form, from
// the overlay's cardinalities.
func (t *Tables) innerCoef(e *memo.Expr) float64 {
	if e.Op == memo.NestedLoopJoin {
		return math.Max(1, t.CardOf(e.Children[0]))
	}
	return 1
}

// Combine returns the full cost of the plan rooted at e given the full
// costs of its child sub-plans, by e's affine form (Affine), summed in
// child order: (local + c0) + inner·c1. The optimizer's winner search
// folds it over the count table; plan.CostWith folds the same form over
// one plan. The nested-loop join re-executes its inner child once per
// outer row, which is the structural source of the enormous worst-case
// plans in Table 1.
func (t *Tables) Combine(e *memo.Expr, childCosts []float64) (float64, error) {
	if len(childCosts) != len(e.Children) {
		return 0, fmt.Errorf("cost: operator %s has %d children, got %d child costs",
			e.Name(), len(e.Children), len(childCosts))
	}
	total, inner, ok := t.Affine(e)
	if !ok {
		return 0, fmt.Errorf("cost: operator %s (expr %d) is outside the overlay's memo", e.Name(), e.ID)
	}
	for i, c := range childCosts {
		if i == 1 {
			c = inner * c
		}
		total += c
	}
	return total, nil
}

// MemoryBytes estimates the overlay's resident size for cache byte
// accounting.
func (t *Tables) MemoryBytes() int64 {
	if t == nil {
		return 0
	}
	return int64(len(t.Cards)+len(t.Locals)+len(t.Inner))*8 + 3*24
}
