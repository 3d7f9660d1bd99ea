package core

import (
	"fmt"
	"math"

	"repro/internal/memo"
	"repro/internal/plan"
)

// Cheapest is the optimizer's winner search ("for every group we keep
// track of the best physical operator for each set of physical
// properties") run over the space's own Section 3.1 tables: the fold
// that counting runs with (sum, product) over the operator records and
// the shared candidate lists, run with (min, combine) instead. A list
// is keyed by (child group, required ordering), exactly a winner's key,
// so its cheapest operator is that winner.
//
// combine returns an operator's total cost from its local cost and the
// costs of the cheapest plans of its child slots, in slot order (an
// enforcer's single slot is its own group's cheapest non-enforcer). The
// slice is reused across calls and must not be retained. Operators
// that cover no plan (N(v) = 0) take no part. Ties go to the first
// operator in list order, which is group order.
//
// Cheapest returns the optimal plan and its cost. The fold's tables
// live only for the call, so any number of costings may fold over one
// space concurrently.
func (s *Space) Cheapest(combine func(*memo.Expr, []float64) (float64, error)) (*plan.Node, float64, error) {
	f := fold{
		s:       s,
		combine: combine,
		cost:    make([]float64, len(s.ops)),
		done:    make([]bool, len(s.ops)),
		win:     make([]int32, len(s.lists)),
	}
	best := int32(-1)
	for _, k := range s.rootOps {
		c, err := f.costOp(k)
		if err != nil {
			return nil, 0, err
		}
		if best < 0 || c < f.cost[best] {
			best = k
		}
	}
	if best < 0 {
		return nil, 0, fmt.Errorf("core: no plan found for root group")
	}
	return f.node(best), f.cost[best], nil
}

// fold is one Cheapest call's state, indexed like the space's tables.
type fold struct {
	s       *Space
	combine func(*memo.Expr, []float64) (float64, error)
	cost    []float64 // by operator: total cost of the cheapest plan rooted there
	done    []bool    // by operator: cost is set
	win     []int32   // by list: 1 + the list's cheapest operator (0: not chosen yet)
	cc      []float64 // child costs handed to combine, reused
}

// covers reports whether operator k roots at least one complete plan.
func (s *Space) covers(k int32) bool {
	op := &s.ops[k]
	if op.fits {
		return op.n64 > 0
	}
	return len(s.wideN[op.wide]) > 0
}

// costOp returns the cost of the cheapest plan rooted at operator k,
// which must cover a plan: then every list its slots name holds one
// that does too.
func (f *fold) costOp(k int32) (float64, error) {
	if f.done[k] {
		return f.cost[k], nil
	}
	op := &f.s.ops[k]
	slots := f.s.slots[op.first : op.first+op.nslot]
	for _, li := range slots {
		if f.win[li] == 0 {
			if err := f.choose(li); err != nil {
				return 0, err
			}
		}
	}
	f.cc = f.cc[:0]
	for _, li := range slots {
		f.cc = append(f.cc, f.cost[f.win[li]-1])
	}
	c, err := f.combine(op.expr, f.cc)
	if err != nil {
		return 0, err
	}
	if math.IsNaN(c) || math.IsInf(c, 0) {
		return 0, fmt.Errorf("core: non-finite cost for operator %s", op.expr.Name())
	}
	f.cost[k], f.done[k] = c, true
	return c, nil
}

// choose picks list li's winner: its first operator of least cost among
// those that cover a plan.
func (f *fold) choose(li int32) error {
	best := int32(-1)
	for _, k := range f.s.lists[li].ops {
		if !f.s.covers(k) {
			continue
		}
		c, err := f.costOp(k)
		if err != nil {
			return err
		}
		if best < 0 || c < f.cost[best] {
			best = k
		}
	}
	f.win[li] = best + 1
	return nil
}

// node builds the winner plan rooted at operator k: each slot takes its
// list's winner.
func (f *fold) node(k int32) *plan.Node {
	op := &f.s.ops[k]
	n := &plan.Node{Expr: op.expr}
	if op.nslot > 0 {
		n.Children = make([]*plan.Node, op.nslot)
		for i, li := range f.s.slots[op.first : op.first+op.nslot] {
			n.Children[i] = f.node(f.win[li] - 1)
		}
	}
	return n
}
