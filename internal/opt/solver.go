package opt

import (
	"fmt"
	"math"

	"repro/internal/algebra"
	"repro/internal/memo"
	"repro/internal/plan"
)

// skeleton is the structure-level half of the winner computation: for
// every group, the distinct ordering contexts a plan search can demand
// of it (context 0 is always "no ordering"), which of the group's
// physical operators can serve each context (delivered-satisfies,
// precomputed), and for every operator slot the child group's context
// index for the slot's required ordering. None of this depends on
// costs, so one skeleton is built per structure and shared by every
// costing over it — the bulk of what used to be per-optimization string
// hashing (ordering keys, winner-memo lookups) happens exactly once.
type skeleton struct {
	ctxs    [][]algebra.Ordering // by group ID: ctx 0 = nil, then the demanded orderings
	sat     [][][]int32          // by group ID, by ctx: positions in Group.Physical whose Delivered satisfies it
	slotCtx [][]int32            // by expr ID: per child slot, the ctx index in the child group
	maxExpr int
}

func findCtx(list []algebra.Ordering, o algebra.Ordering) int {
	if o.IsNone() {
		return 0
	}
	for i, have := range list {
		if i == 0 {
			continue
		}
		if have.Equal(o) {
			return i
		}
	}
	return -1
}

// buildSkeleton derives the context layout from the memo alone.
func buildSkeleton(m *memo.Memo) *skeleton {
	maxG, maxE := 0, 0
	for _, g := range m.Groups {
		if g.ID > maxG {
			maxG = g.ID
		}
		for _, e := range g.Exprs {
			if e.ID > maxE {
				maxE = e.ID
			}
		}
	}
	sk := &skeleton{
		ctxs:    make([][]algebra.Ordering, maxG+1),
		sat:     make([][][]int32, maxG+1),
		slotCtx: make([][]int32, maxE+1),
		maxExpr: maxE,
	}
	// Base contexts: none plus the registered interesting orders.
	for _, g := range m.Groups {
		list := make([]algebra.Ordering, 1, len(g.InterestingOrders)+1)
		for _, o := range g.InterestingOrders {
			if findCtx(list, o) < 0 {
				list = append(list, o)
			}
		}
		sk.ctxs[g.ID] = list
	}
	// Any required ordering a parent demands that was not registered
	// (hand-built memos) becomes a context too.
	for _, g := range m.Groups {
		for _, e := range g.Physical {
			if e.IsEnforcer() {
				continue
			}
			for i, cg := range e.Children {
				req := plan.RequiredOf(e, i)
				if req.IsNone() {
					continue
				}
				if findCtx(sk.ctxs[cg.ID], req) < 0 {
					sk.ctxs[cg.ID] = append(sk.ctxs[cg.ID], req)
				}
			}
		}
	}
	// Resolve every slot's context index, and every context's
	// satisfying operators.
	for _, g := range m.Groups {
		for _, e := range g.Physical {
			if e.IsEnforcer() || len(e.Children) == 0 {
				continue
			}
			slots := make([]int32, len(e.Children))
			for i, cg := range e.Children {
				slots[i] = int32(findCtx(sk.ctxs[cg.ID], plan.RequiredOf(e, i)))
			}
			sk.slotCtx[e.ID] = slots
		}
		sat := make([][]int32, len(sk.ctxs[g.ID]))
		for k, req := range sk.ctxs[g.ID] {
			var list []int32
			for pi, e := range g.Physical {
				if e.Delivered.Satisfies(req) {
					list = append(list, int32(pi))
				}
			}
			sat[k] = list
		}
		sk.sat[g.ID] = sat
	}
	return sk
}

// solution is one costing's winner tables: the per-operator total cost
// of the cheapest plan rooted there (an operator's cost is independent
// of the demanded ordering — contexts only filter which operators
// qualify), the per-(group, context) winning operator, and the
// per-group best non-enforcer that enforcers take as input. Winner plan
// nodes are materialized lazily and shared: the winner trees form a DAG
// over at most one node per operator.
type solution struct {
	sk     *skeleton
	cost   []float64      // by expr ID: total cost of the best plan rooted at the operator
	ok     []bool         // by expr ID: a complete plan exists
	node   []*plan.Node   // by expr ID: lazily built winner node
	win    [][]*memo.Expr // by group ID, by ctx: winning operator (nil: no plan)
	neBest []*memo.Expr   // by group ID: best non-enforcer (enforcer input)
}

// solve runs the bottom-up winner pass. Groups are processed in ID
// order, which is topological for every memo builder in the repo
// (children are created before the operators that reference them);
// a violation is reported as an error rather than silently miscosted.
func (c *Costing) solve() error {
	m := c.Memo
	sk := c.sol.sk
	sol := c.sol
	var cc [8]float64
	for _, g := range m.Groups {
		// Non-enforcers first: their costs feed both the context
		// winners and the group's enforcers.
		for _, e := range g.Physical {
			if e.IsEnforcer() {
				continue
			}
			if len(e.Children) > len(cc) {
				return fmt.Errorf("opt: operator %s has %d children, solver supports %d", e.Name(), len(e.Children), len(cc))
			}
			feasible := true
			slots := sk.slotCtx[e.ID]
			for i, cg := range e.Children {
				if sol.win[cg.ID] == nil {
					return fmt.Errorf("opt: memo group %d referenced before it was solved (not topologically ordered)", cg.ID)
				}
				ctx := 0
				if slots != nil {
					ctx = int(slots[i])
				}
				if ctx < 0 {
					feasible = false
					break
				}
				w := sol.win[cg.ID][ctx]
				if w == nil {
					feasible = false // requirement unsatisfiable in this child
					break
				}
				cc[i] = sol.cost[w.ID]
			}
			if !feasible {
				continue
			}
			total, err := c.Tables.Combine(e, cc[:len(e.Children)])
			if err != nil {
				return err
			}
			if math.IsNaN(total) || math.IsInf(total, 0) {
				return fmt.Errorf("opt: non-finite cost for operator %s", e.Name())
			}
			sol.cost[e.ID] = total
			sol.ok[e.ID] = true
		}
		var neBest *memo.Expr
		for _, e := range g.Physical {
			if e.IsEnforcer() || !sol.ok[e.ID] {
				continue
			}
			if neBest == nil || sol.cost[e.ID] < sol.cost[neBest.ID] {
				neBest = e
			}
		}
		sol.neBest[g.ID] = neBest
		if neBest != nil {
			for _, e := range g.Physical {
				if !e.IsEnforcer() {
					continue
				}
				cc[0] = sol.cost[neBest.ID]
				total, err := c.Tables.Combine(e, cc[:1])
				if err != nil {
					return err
				}
				sol.cost[e.ID] = total
				sol.ok[e.ID] = true
			}
		}
		// Context winners: first strict minimum in Physical order, the
		// same tie-breaking the recursive search used.
		sat := sk.sat[g.ID]
		winners := make([]*memo.Expr, len(sat))
		for k, list := range sat {
			var best *memo.Expr
			for _, pi := range list {
				e := g.Physical[pi]
				if !sol.ok[e.ID] {
					continue
				}
				if best == nil || sol.cost[e.ID] < sol.cost[best.ID] {
					best = e
				}
			}
			winners[k] = best
		}
		sol.win[g.ID] = winners
	}
	return nil
}

// nodeOf materializes the winner plan rooted at operator e (which must
// have sol.ok set). Nodes are shared across parents — winner trees are
// DAGs — exactly as the recursive search shared memoized winners.
func (c *Costing) nodeOf(e *memo.Expr) *plan.Node {
	sol := c.sol
	if n := sol.node[e.ID]; n != nil {
		return n
	}
	var kids []*plan.Node
	if e.IsEnforcer() {
		kids = []*plan.Node{c.nodeOf(sol.neBest[e.Group.ID])}
	} else if len(e.Children) > 0 {
		kids = make([]*plan.Node, len(e.Children))
		slots := sol.sk.slotCtx[e.ID]
		for i, cg := range e.Children {
			ctx := 0
			if slots != nil {
				ctx = int(slots[i])
			}
			kids[i] = c.nodeOf(sol.win[cg.ID][ctx])
		}
	}
	n := &plan.Node{Expr: e, Children: kids}
	sol.node[e.ID] = n
	return n
}

// WinnerCount reports the number of (group, context) winner slots (for
// cache byte accounting).
func (c *Costing) WinnerCount() int {
	n := 0
	for _, w := range c.sol.win {
		n += len(w)
	}
	return n
}

// RetainedExprs simulates the paper's remark that "some optimizers by
// default discard suboptimal expressions": it returns the set of
// operators a pruning optimizer would retain — for every (group,
// context) reachable from the root, only the winning operator survives.
// Counting plans over this filtered MEMO quantifies how much of the
// space pruning hides from testing (ablation E9).
func (c *Costing) RetainedExprs() map[*memo.Expr]bool {
	sol := c.sol
	retained := make(map[*memo.Expr]bool)
	type ctxKey struct {
		g    int
		ctx  int
		kind uint8
	}
	seen := make(map[ctxKey]bool)
	var visit func(g *memo.Group, ctx int, nonEnf bool)
	visit = func(g *memo.Group, ctx int, nonEnf bool) {
		kind := uint8(0)
		if nonEnf {
			kind = 1
		}
		key := ctxKey{g: g.ID, ctx: ctx, kind: kind}
		if seen[key] {
			return
		}
		seen[key] = true
		var w *memo.Expr
		if nonEnf {
			w = sol.neBest[g.ID]
		} else {
			w = sol.win[g.ID][ctx]
		}
		if w == nil {
			return
		}
		retained[w] = true
		if w.IsEnforcer() {
			visit(w.Group, 0, true)
			return
		}
		slots := sol.sk.slotCtx[w.ID]
		for i, cg := range w.Children {
			k := 0
			if slots != nil {
				k = int(slots[i])
			}
			visit(cg, k, false)
		}
	}
	visit(c.Memo.Root, 0, false)
	return retained
}
