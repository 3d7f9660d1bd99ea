package cost

import "repro/internal/memo"

// Tables is a cost overlay over a shared memo: the per-group estimated
// cardinalities and per-operator local costs. Keeping them out of the
// memo lets any number of costings — different cost
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

// NewTables sizes an overlay for a memo.
func NewTables(m *memo.Memo) *Tables {
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

// MemoryBytes estimates the overlay's resident size for cache byte
// accounting.
func (t *Tables) MemoryBytes() int64 {
	if t == nil {
		return 0
	}
	return int64(len(t.Cards)+len(t.Locals))*8 + 2*24
}
