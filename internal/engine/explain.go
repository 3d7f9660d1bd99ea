package engine

import (
	"fmt"
	"strings"

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
	var sb strings.Builder
	if err := p.explainNode(&sb, n, 0); err != nil {
		return "", err
	}
	return sb.String(), nil
}

func (p *Prepared) explainNode(sb *strings.Builder, n *plan.Node, depth int) error {
	subtree, err := n.Cost(p.Opt.Model)
	if err != nil {
		return err
	}
	local, err := p.Opt.Model.Local(n.Expr)
	if err != nil {
		return err
	}
	fmt.Fprintf(sb, "%s%-6s %-32s rows=%-10.0f cost=%-12.2f self=%.2f",
		strings.Repeat("  ", depth), n.Expr.Name(), n.Expr.Describe(),
		p.Opt.Model.CardOf(n.Expr.Group), subtree, local)
	if !n.Expr.Delivered.IsNone() {
		fmt.Fprintf(sb, " delivers=%s", n.Expr.Delivered)
	}
	sb.WriteByte('\n')
	for _, c := range n.Children {
		if err := p.explainNode(sb, c, depth+1); err != nil {
			return err
		}
	}
	return nil
}
