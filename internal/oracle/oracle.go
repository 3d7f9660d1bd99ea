// Package oracle is a reference implementation of the paper's counting,
// unranking, and ranking (Section 3) over a memo.Memo, in plain math/big
// arithmetic. It exists only for tests: the differential tests and the
// speedup benchmarks compare internal/core's uint64 and wide tiers
// against it, and no non-test package imports it.
//
// It is deliberately independent of internal/core. It derives every
// candidate list from the memo with the Section 3.1 rule itself —
// an enforcer takes the non-enforcer operators of its own group, any
// other operator takes, per child slot, the child group's operators
// whose delivered ordering satisfies plan.RequiredOf — and shares none
// of core's link materialization, count tables, or selection code, so
// a defect there cannot hide inside its own reference. Speed is not a
// goal: every base and prefix is summed afresh on each call.
package oracle

import (
	"fmt"
	"math/big"

	"repro/internal/memo"
	"repro/internal/plan"
)

// Oracle holds the counted plan space of one memo.
type Oracle struct {
	cands map[*memo.Expr][][]*memo.Expr // candidate lists per child slot
	n     map[*memo.Expr]*big.Int       // N(v): plans rooted at v
	roots []*memo.Expr                  // root-group operators, in rank-range order
	total *big.Int                      // N: plans of the whole space
}

// New counts every plan of m: N(v) = Π_i Σ_{w in cands(v, i)} N(w),
// with N(v) = 1 for an operator without child slots, and N = Σ N(v)
// over the root group. A memo without a root group has no plans.
func New(m *memo.Memo) *Oracle {
	o := &Oracle{
		cands: make(map[*memo.Expr][][]*memo.Expr),
		n:     make(map[*memo.Expr]*big.Int),
		total: new(big.Int),
	}
	if m.Root == nil {
		return o
	}
	for _, e := range m.Root.Physical {
		o.roots = append(o.roots, e)
		o.total.Add(o.total, o.count(e))
	}
	return o
}

// candidates applies the Section 3.1 rule to one operator.
func candidates(e *memo.Expr) [][]*memo.Expr {
	if e.IsEnforcer() {
		var slot []*memo.Expr
		for _, c := range e.Group.Physical {
			if !c.IsEnforcer() {
				slot = append(slot, c)
			}
		}
		return [][]*memo.Expr{slot}
	}
	slots := make([][]*memo.Expr, len(e.Children))
	for i, g := range e.Children {
		req := plan.RequiredOf(e, i)
		for _, c := range g.Physical {
			if c.Delivered.Satisfies(req) {
				slots[i] = append(slots[i], c)
			}
		}
	}
	return slots
}

// count returns N(e), memoized.
func (o *Oracle) count(e *memo.Expr) *big.Int {
	if n, ok := o.n[e]; ok {
		return n
	}
	slots := candidates(e)
	o.cands[e] = slots
	n := big.NewInt(1)
	for _, slot := range slots {
		n.Mul(n, o.base(slot))
	}
	o.n[e] = n
	return n
}

// base returns b = Σ N(w) over one candidate list: the digit base of
// that child slot in the mixed-radix rank.
func (o *Oracle) base(slot []*memo.Expr) *big.Int {
	b := new(big.Int)
	for _, c := range slot {
		b.Add(b, o.count(c))
	}
	return b
}

// Count returns N, the number of plans in the space.
func (o *Oracle) Count() *big.Int { return new(big.Int).Set(o.total) }

// Unrank returns the plan with rank r in [0, N): the root operators
// cover consecutive rank ranges in memo order, and an operator's local
// rank is the little-endian mixed-radix number whose digit i, in base
// b_v(i), selects a candidate of slot i together with that candidate's
// own local rank.
func (o *Oracle) Unrank(r *big.Int) (*plan.Node, error) {
	if r.Sign() < 0 || r.Cmp(o.total) >= 0 {
		return nil, fmt.Errorf("oracle: rank %s out of range [0, %s)", r, o.total)
	}
	e, local := pick(o.roots, o.n, r)
	return o.unrank(e, local), nil
}

// pick finds the operator whose rank range holds r and returns it with
// r's offset inside that range. r must be below Σ N over ops.
func pick(ops []*memo.Expr, n map[*memo.Expr]*big.Int, r *big.Int) (*memo.Expr, *big.Int) {
	local := new(big.Int).Set(r)
	for _, e := range ops {
		if local.Cmp(n[e]) < 0 {
			return e, local
		}
		local.Sub(local, n[e])
	}
	panic("oracle: rank beyond the counted range")
}

func (o *Oracle) unrank(e *memo.Expr, local *big.Int) *plan.Node {
	slots := o.cands[e]
	node := &plan.Node{Expr: e}
	if len(slots) == 0 {
		return node
	}
	node.Children = make([]*plan.Node, len(slots))
	rest := new(big.Int).Set(local)
	digit := new(big.Int)
	for i, slot := range slots {
		rest.QuoRem(rest, o.base(slot), digit)
		c, sub := pick(slot, o.n, digit)
		node.Children[i] = o.unrank(c, sub)
	}
	return node
}

// Rank returns the rank of p, the inverse of Unrank. It fails when p
// is not a plan of this space.
func (o *Oracle) Rank(p *plan.Node) (*big.Int, error) {
	offset := new(big.Int)
	for _, e := range o.roots {
		if e == p.Expr {
			local, err := o.rank(p)
			if err != nil {
				return nil, err
			}
			return local.Add(local, offset), nil
		}
		offset.Add(offset, o.n[e])
	}
	return nil, fmt.Errorf("oracle: plan root %s is not a root-group operator", p.Expr.Name())
}

func (o *Oracle) rank(p *plan.Node) (*big.Int, error) {
	slots, ok := o.cands[p.Expr]
	if !ok {
		return nil, fmt.Errorf("oracle: operator %s is not part of this space", p.Expr.Name())
	}
	if len(p.Children) != len(slots) {
		return nil, fmt.Errorf("oracle: operator %s has %d child slots, plan node has %d",
			p.Expr.Name(), len(slots), len(p.Children))
	}
	local := new(big.Int)
	weight := big.NewInt(1) // Π of the bases of the slots before i
	for i, child := range p.Children {
		digit := new(big.Int)
		found := false
		for _, c := range slots[i] {
			if c == child.Expr {
				found = true
				break
			}
			digit.Add(digit, o.n[c])
		}
		if !found {
			return nil, fmt.Errorf("oracle: %s is not a valid child %d of %s",
				child.Expr.Name(), i, p.Expr.Name())
		}
		sub, err := o.rank(child)
		if err != nil {
			return nil, err
		}
		digit.Add(digit, sub)
		local.Add(local, digit.Mul(digit, weight))
		weight.Mul(weight, o.base(slots[i]))
	}
	return local, nil
}
