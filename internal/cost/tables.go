package cost

import (
	"fmt"
	"math"

	"repro/internal/memo"
)

// Tables is a cost overlay over a shared memo: the per-group estimated
// cardinalities and per-operator local costs, built by Fill. Keeping
// them out of the memo lets any number of costings — different cost
// parameters, different statistics versions, different feedback epochs
// — coexist over one immutable counted structure without mutating it.
//
// Cards is indexed by memo.Group.ID and Locals by memo.Expr.ID (both
// IDs are dense creation sequences). A Tables value is immutable after
// construction and safe for concurrent readers.
type Tables struct {
	Cards  []float64 // Cards[g.ID] = estimated output rows of group g
	Locals []float64 // Locals[e.ID] = operator e's own cost contribution
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

// Combine returns the full cost of the plan rooted at e given the full
// costs of its child sub-plans. It is the single costing entry point,
// used both by the optimizer's winner computation and by the
// cost-distribution experiments that cost uniformly sampled plans. For
// most operators this is local cost plus the sum of child costs; the
// nested-loop join instead re-executes its inner child once per outer
// row, which is the structural source of the enormous worst-case plans
// in Table 1.
func (t *Tables) Combine(e *memo.Expr, childCosts []float64) (float64, error) {
	if len(childCosts) != len(e.Children) {
		return 0, fmt.Errorf("cost: operator %s has %d children, got %d child costs",
			e.Name(), len(e.Children), len(childCosts))
	}
	if e.ID >= len(t.Locals) {
		return 0, fmt.Errorf("cost: operator %s (expr %d) is outside the overlay's memo", e.Name(), e.ID)
	}
	local := t.Locals[e.ID]
	if e.Op == memo.NestedLoopJoin {
		rescans := math.Max(1, t.CardOf(e.Children[0]))
		return local + childCosts[0] + rescans*childCosts[1], nil
	}
	total := local
	for _, c := range childCosts {
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
	return int64(len(t.Cards)+len(t.Locals))*8 + 2*24
}
