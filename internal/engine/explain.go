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
	c := p.Overlay.Costing
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
// operator's own cost contribution. The cumulative cost of the root line
// equals the plan's Cost under the overlay's model.
func (p *Prepared) Explain(n *plan.Node) (string, error) {
	costs, err := p.subtreeCosts(nil, n)
	if err != nil {
		return "", err
	}
	next := 0
	return string(p.appendExplain(nil, n, 0, costs, &next)), nil
}

// subtreeCosts appends the cost of every subtree of n to costs in
// preorder, so costs[i] belongs to the tree's i-th line. One post-order
// pass combines each node's cost from its children's.
func (p *Prepared) subtreeCosts(costs []float64, n *plan.Node) ([]float64, error) {
	at := len(costs)
	costs = append(costs, 0)
	var buf [2]float64
	children := buf[:0]
	for _, c := range n.Children {
		ci := len(costs)
		var err error
		if costs, err = p.subtreeCosts(costs, c); err != nil {
			return nil, err
		}
		children = append(children, costs[ci])
	}
	total, err := p.Opt.Model.Combine(n.Expr, children)
	if err != nil {
		return nil, err
	}
	costs[at] = total
	return costs, nil
}

// appendExplain appends the lines of the subtree rooted at n; *next is
// the preorder index of n's line in costs.
func (p *Prepared) appendExplain(b []byte, n *plan.Node, depth int, costs []float64, next *int) []byte {
	e := n.Expr
	for i := 0; i < depth; i++ {
		b = append(b, "  "...)
	}
	start := len(b)
	b = padRight(e.AppendName(b), start, 6)
	start = len(b) + 1
	b = padRight(e.AppendDescribe(append(b, ' ')), start, 32)
	start = len(b) + len(" rows=")
	b = padRight(strconv.AppendFloat(append(b, " rows="...), p.Opt.Model.CardOf(e.Group), 'f', 0, 64), start, 10)
	start = len(b) + len(" cost=")
	b = padRight(strconv.AppendFloat(append(b, " cost="...), costs[*next], 'f', 2, 64), start, 12)
	b = strconv.AppendFloat(append(b, " self="...), p.Opt.Tables.Locals[e.ID], 'f', 2, 64)
	if !e.Delivered.IsNone() {
		b = e.Delivered.AppendTo(append(b, " delivers="...))
	}
	b = append(b, '\n')
	*next++
	for _, c := range n.Children {
		b = p.appendExplain(b, c, depth+1, costs, next)
	}
	return b
}

// padRight left-justifies b[start:] in a field of width characters, as
// fmt's %-*s does.
func padRight(b []byte, start, width int) []byte {
	for n := utf8.RuneCount(b[start:]); n < width; n++ {
		b = append(b, ' ')
	}
	return b
}
