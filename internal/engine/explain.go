package engine

import (
	"strconv"
	"unicode/utf8"

	"repro/internal/memo"
	"repro/internal/plan"
)

// ExportJSON serializes the statement's counted space with the current
// overlay's cost annotations (cards and local costs live in the cost
// overlay, not in the shared memo).
func (p *Prepared) ExportJSON() ([]byte, error) {
	c := p.Opt
	return p.Space.ExportJSONAnnotated(
		c.Tables.CardOf,
		func(e *memo.Expr) float64 {
			if e.ID < len(c.Tables.Locals) {
				return c.Tables.Locals[e.ID]
			}
			return 0
		},
	)
}

// Explain renders a plan as an EXPLAIN-style tree: one line per operator
// with the operator's paper-style name, its estimated output rows (a
// property of its group), the cost of the subtree rooted there, and the
// operator's own cost contribution. It also returns the plan's total
// cost under the overlay — the cumulative cost of the root line.
func (p *Prepared) Explain(n *plan.Node) (string, float64, error) {
	total, err := n.CostWith(p.Opt.Tables)
	if err != nil {
		return "", 0, err
	}
	b, err := p.appendExplain(nil, n, 0)
	if err != nil {
		return "", 0, err
	}
	return string(b), total, nil
}

// appendExplain appends the lines of the subtree rooted at n, costing
// each line's subtree.
func (p *Prepared) appendExplain(b []byte, n *plan.Node, depth int) ([]byte, error) {
	cost, err := n.CostWith(p.Opt.Tables)
	if err != nil {
		return nil, err
	}
	e := n.Expr
	for i := 0; i < depth; i++ {
		b = append(b, "  "...)
	}
	start := len(b)
	b = padRight(e.AppendName(b), start, 6)
	start = len(b) + 1
	b = padRight(e.AppendDescribe(append(b, ' ')), start, 32)
	start = len(b) + len(" rows=")
	b = padRight(strconv.AppendFloat(append(b, " rows="...), p.Opt.Tables.CardOf(e.Group), 'f', 0, 64), start, 10)
	start = len(b) + len(" cost=")
	b = padRight(strconv.AppendFloat(append(b, " cost="...), cost, 'f', 2, 64), start, 12)
	b = strconv.AppendFloat(append(b, " self="...), p.Opt.Tables.Locals[e.ID], 'f', 2, 64)
	if !e.Delivered.IsNone() {
		b = e.Delivered.AppendTo(append(b, " delivers="...))
	}
	b = append(b, '\n')
	for _, c := range n.Children {
		if b, err = p.appendExplain(b, c, depth+1); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// padRight left-justifies b[start:] in a field of width characters, as
// fmt's %-*s does.
func padRight(b []byte, start, width int) []byte {
	for n := utf8.RuneCount(b[start:]); n < width; n++ {
		b = append(b, ' ')
	}
	return b
}
