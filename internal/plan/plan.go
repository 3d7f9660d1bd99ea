// Package plan represents fully assembled execution plans: trees of
// physical memo operators. The paper's point that the MEMO "does not keep
// track of how many combinations of operators there are, and only the
// optimal plan is completely assembled" is why this package exists
// separately — unranking produces these trees out of the shared MEMO.
package plan

import (
	"fmt"
	"strings"

	"repro/internal/algebra"
	"repro/internal/cost"
	"repro/internal/memo"
)

// Node is one operator occurrence in a plan. The same memo.Expr may occur
// in many plans (and even several times within one plan, through
// different paths); Node pins down the specific choice made for each
// child slot.
type Node struct {
	Expr     *memo.Expr
	Children []*Node
}

// CostBuf is unused: CostWith folds a plan by direct recursion and
// needs no buffer. It remains only as the parameter type of
// engine.Prepared.ScaledCostWith, which the perfbench mirror compiles
// against, and goes with the mirror.
type CostBuf struct{}

// CostWith computes the plan's total cost under the overlay t: each
// node's affine form (cost.Tables.Affine) folded over its children's
// costs by direct recursion, (local + c0) + inner·c1 in child order,
// exactly as Tables.Combine sums it, so the two agree bit for bit. The
// fold keeps its partial sums in registers and allocates nothing, so
// hot sampling loops (experiments, the plan-space server) cost and
// discard thousands of plans for free. A node whose operator lies
// outside t's memo, or whose child count differs from its operator's,
// is an error.
func (n *Node) CostWith(t *cost.Tables) (float64, error) {
	e := n.Expr
	if len(n.Children) != len(e.Children) {
		return 0, fmt.Errorf("plan: operator %s has %d children, node has %d", e.Name(), len(e.Children), len(n.Children))
	}
	total, inner, ok := t.Affine(e)
	if !ok {
		return 0, fmt.Errorf("plan: operator %s (expr %d) is outside the cost overlay's memo", e.Name(), e.ID)
	}
	for i, c := range n.Children {
		cc, err := c.CostWith(t)
		if err != nil {
			return 0, err
		}
		if i == 1 {
			cc = inner * cc
		}
		total += cc
	}
	return total, nil
}

// Operators returns the plan's operators in preorder — the form the
// paper's appendix lists plans in ("we unranked the operators 7.7, 4.3,
// 3.4, 2.3, and 1.3").
func (n *Node) Operators() []*memo.Expr {
	out := []*memo.Expr{n.Expr}
	for _, c := range n.Children {
		out = append(out, c.Operators()...)
	}
	return out
}

// Digest returns a canonical encoding of the plan's shape, used to check
// that distinct ranks unrank to distinct plans.
func (n *Node) Digest() string {
	var sb strings.Builder
	n.digest(&sb)
	return sb.String()
}

func (n *Node) digest(sb *strings.Builder) {
	fmt.Fprintf(sb, "(%d", n.Expr.ID)
	for _, c := range n.Children {
		sb.WriteByte(' ')
		c.digest(sb)
	}
	sb.WriteByte(')')
}

// Equal reports whether two plans choose the same operator at every
// position.
func Equal(a, b *Node) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Expr != b.Expr || len(a.Children) != len(b.Children) {
		return false
	}
	for i := range a.Children {
		if !Equal(a.Children[i], b.Children[i]) {
			return false
		}
	}
	return true
}

// String renders the plan as an indented tree.
func (n *Node) String() string {
	var buf [2048]byte // holds most plans' trees without growing
	return string(n.AppendTo(buf[:0]))
}

// AppendTo appends String's rendering to b: one line per operator in
// preorder, indented two spaces per level, with its name, description
// and delivered ordering. Rendering into a reused buffer allocates
// nothing.
func (n *Node) AppendTo(b []byte) []byte { return n.appendTo(b, 0) }

func (n *Node) appendTo(b []byte, depth int) []byte {
	for i := 0; i < depth; i++ {
		b = append(b, "  "...)
	}
	b = n.Expr.AppendDescribe(append(n.Expr.AppendName(b), ' '))
	if !n.Expr.Delivered.IsNone() {
		b = n.Expr.Delivered.AppendTo(append(b, " delivers="...))
	}
	b = append(b, '\n')
	for _, c := range n.Children {
		b = c.appendTo(b, depth+1)
	}
	return b
}

// Validate checks the structural invariants the paper's testing
// methodology relies on ("are the alternatives considered really valid
// execution plans?"): every child node must belong to the group its slot
// references (enforcers: to the operator's own group), and every child's
// delivered ordering must satisfy the parent's requirement.
func (n *Node) Validate() error {
	e := n.Expr
	if e.Op.Logical() {
		return fmt.Errorf("plan: operator %s is logical", e.Name())
	}
	if e.IsEnforcer() {
		if len(n.Children) != 1 {
			return fmt.Errorf("plan: enforcer %s has %d children", e.Name(), len(n.Children))
		}
		child := n.Children[0]
		if child.Expr.Group != e.Group {
			return fmt.Errorf("plan: enforcer %s child %s is not in its group", e.Name(), child.Expr.Name())
		}
		if child.Expr.IsEnforcer() {
			return fmt.Errorf("plan: enforcer %s stacked on enforcer %s", e.Name(), child.Expr.Name())
		}
		return child.Validate()
	}
	if len(n.Children) != len(e.Children) {
		return fmt.Errorf("plan: operator %s has %d child slots, node has %d", e.Name(), len(e.Children), len(n.Children))
	}
	for i, child := range n.Children {
		if child.Expr.Group != e.Children[i] {
			return fmt.Errorf("plan: %s child %d is %s from group %d, want group %d",
				e.Name(), i, child.Expr.Name(), child.Expr.Group.ID, e.Children[i].ID)
		}
		req, delivered := RequiredOf(e, i), child.Expr.Delivered
		if !delivered.Satisfies(req) {
			return fmt.Errorf("plan: %s requires %s of child %d, %s delivers %s",
				e.Name(), req, i, child.Expr.Name(), delivered)
		}
		if err := child.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// RequiredOf returns the ordering operator e imposes on child slot i
// (nil when the slot is unconstrained or Required was left sparse).
func RequiredOf(e *memo.Expr, i int) algebra.Ordering {
	if i < len(e.Required) {
		return e.Required[i]
	}
	return nil
}
