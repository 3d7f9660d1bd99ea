package core

import (
	"fmt"

	"repro/internal/plan"
)

// This file wires the wide limb arithmetic of wide.go into the paper's
// bijection: rank-range selection over wide prefix sums, mixed-radix
// decomposition with wide (or single-limb) bases, rank reconstruction,
// and the glue that hands any subtree whose count fits uint64 straight
// to the native lanes in fast.go. Every temporary is carved from a
// WideArena, so a warmed UnrankWideInto performs zero heap allocations.

// unrankWide decomposes a canonical in-range rank on the wide tier
// (unrankLimbs has checked both).
func (s *Space) unrankWide(r []uint64, a *Arena, wa *WideArena) (*plan.Node, error) {
	k := selectByPrefixWide(s.prefixW, r)
	local := wideSubInPlace(wa.put(r), s.prefixW[k])
	op := s.rootOps[k]
	if s.ops[op].fits {
		v, _ := wideToU64(local)
		return s.unrankOp64(op, v, a)
	}
	return s.unrankOpWide(op, local, a, wa)
}

// unrankOpWide mirrors unrankOp64 with limb arithmetic. rl is owned
// scratch (mutated in place); lists whose sums fit uint64 decompose on
// the single-limb lane, and the recursion drops to the native uint64
// decomposer the moment a child's whole subtree fits — for TPC-H-scale
// wide spaces that is almost immediately, so the wide work stays
// confined to the top of the plan.
func (s *Space) unrankOpWide(k int32, rl []uint64, a *Arena, wa *WideArena) (*plan.Node, error) {
	op := &s.ops[k]
	var node *plan.Node
	if a != nil {
		node = a.newNode(op.expr)
	} else {
		node = &plan.Node{Expr: op.expr}
	}
	if op.nslot == 0 {
		if len(rl) != 0 {
			return nil, fmt.Errorf("core: leaf operator %s given non-zero local rank %s", op.expr.Name(), limbsToBig(rl))
		}
		return node, nil
	}
	if a != nil {
		node.Children = a.newChildren(int(op.nslot))
	} else {
		node.Children = make([]*plan.Node, op.nslot)
	}
	rem := rl
	for i, li := range s.slots[op.first : op.first+op.nslot] {
		l := &s.lists[li]
		var (
			child      int32
			childLocal []uint64
		)
		if l.wide == nil {
			// Single-limb lane: the list's base and prefix sums fit
			// uint64 even though the node as a whole does not.
			b := l.b
			if b == 0 {
				return nil, fmt.Errorf("core: operator %s has no candidates for child %d", op.expr.Name(), i)
			}
			var sub uint64
			if len(rem) <= 1 {
				// The remaining rank already fits one limb: reciprocal
				// division, no call, no re-normalization.
				var r0 uint64
				if len(rem) == 1 {
					r0 = rem[0]
				}
				q := l.div.quo(r0)
				sub = r0 - q*b
				r0 = q
				if r0 == 0 {
					rem = rem[:0]
				} else {
					rem = rem[:1]
					rem[0] = r0
				}
			} else {
				rem, sub = wideDivModU64(rem, b)
			}
			j := l.guide.pick(l.prefix, sub)
			child = l.ops[j]
			buf := wa.Alloc(1)
			buf[0] = sub - l.prefix[j]
			childLocal = wideNorm(buf)
		} else {
			var sub []uint64
			rem, sub = wideDivMod(rem, l.wide.b, wa)
			pw := l.wide.prefix
			j := selectByPrefixWide(pw, sub)
			child = l.ops[j]
			childLocal = wideSubInPlace(sub, pw[j])
		}
		var (
			ch  *plan.Node
			err error
		)
		if s.ops[child].fits {
			v, _ := wideToU64(childLocal)
			ch, err = s.unrankOp64(child, v, a)
		} else {
			ch, err = s.unrankOpWide(child, childLocal, a, wa)
		}
		if err != nil {
			return nil, err
		}
		node.Children[i] = ch
	}
	if len(rem) != 0 {
		return nil, fmt.Errorf("core: local rank overflow at operator %s", op.expr.Name())
	}
	return node, nil
}

// rankOpWide is the inverse of unrankOpWide: the local rank of the plan
// rooted at n, whose operator is k, as canonical limbs, dropping to
// rankOp64 on any operator whose subtree fits uint64.
func (s *Space) rankOpWide(k int32, n *plan.Node) ([]uint64, error) {
	op := &s.ops[k]
	if op.fits {
		r, err := s.rankOp64(k, n)
		if err != nil {
			return nil, err
		}
		return wideFromU64(r), nil
	}
	if len(n.Children) != int(op.nslot) {
		return nil, fmt.Errorf("core: operator %s has %d child slots, plan node has %d",
			n.Expr.Name(), op.nslot, len(n.Children))
	}
	var rl []uint64
	base := []uint64{1}
	for i, child := range n.Children {
		l := &s.lists[s.slots[op.first+int32(i)]]
		j, ck, err := s.candidate(l, n, i)
		if err != nil {
			return nil, err
		}
		childLocal, err := s.rankOpWide(ck, child)
		if err != nil {
			return nil, err
		}
		var prefixVal, bVal []uint64
		if l.wide == nil {
			prefixVal, bVal = wideFromU64(l.prefix[j]), wideFromU64(l.b)
		} else {
			prefixVal, bVal = l.wide.prefix[j], l.wide.b
		}
		rl = wideAdd(rl, wideMul(wideAdd(prefixVal, childLocal), base))
		base = wideMul(base, bVal)
	}
	return rl, nil
}
