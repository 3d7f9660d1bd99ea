package core

import (
	"fmt"

	"repro/internal/memo"
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
	e := s.rootOps[k]
	if info := s.info[e.ID]; info.fits {
		v, _ := wideToU64(local)
		return s.unrankExpr64(e, v, a)
	}
	return s.unrankExprWide(e, local, a, wa)
}

// unrankExprWide mirrors unrankExpr64 with limb arithmetic. rl is owned
// scratch (mutated in place); slots whose bases fit uint64 decompose on
// the single-limb lane, and the recursion drops to the native uint64
// decomposer the moment a child's whole subtree fits — for TPC-H-scale
// wide spaces that is almost immediately, so the wide work stays
// confined to the top of the plan.
func (s *Space) unrankExprWide(e *memo.Expr, rl []uint64, a *Arena, wa *WideArena) (*plan.Node, error) {
	info := s.info[e.ID]
	if info == nil {
		return nil, fmt.Errorf("core: operator %s is not part of this space", e.Name())
	}
	var node *plan.Node
	if a != nil {
		node = a.newNode(e)
	} else {
		node = &plan.Node{Expr: e}
	}
	if len(info.cands) == 0 {
		if len(rl) != 0 {
			return nil, fmt.Errorf("core: leaf operator %s given non-zero local rank %s", e.Name(), limbsToBig(rl))
		}
		return node, nil
	}
	if a != nil {
		node.Children = a.newChildren(len(info.cands))
	} else {
		node.Children = make([]*plan.Node, len(info.cands))
	}
	rem := rl
	for i := range info.cands {
		var (
			child      *memo.Expr
			childLocal []uint64
		)
		if info.bW == nil || info.bW[i] == nil {
			// Single-limb lane: the slot's base and prefix sums fit
			// uint64 even though the node as a whole does not.
			b := info.b64[i]
			if b == 0 {
				return nil, fmt.Errorf("core: operator %s has no candidates for child %d", e.Name(), i)
			}
			var sub uint64
			if len(rem) <= 1 {
				// The remaining rank already fits one limb: reciprocal
				// division, no call, no re-normalization.
				var r0 uint64
				if len(rem) == 1 {
					r0 = rem[0]
				}
				q := info.div64[i].quo(r0)
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
			prefix := info.prefix64[i]
			j := selectByPrefix64(prefix, sub)
			child = info.cands[i][j]
			buf := wa.Alloc(1)
			buf[0] = sub - prefix[j]
			childLocal = wideNorm(buf)
		} else {
			bw := info.bW[i]
			if len(bw) == 0 {
				return nil, fmt.Errorf("core: operator %s has no candidates for child %d", e.Name(), i)
			}
			var sub []uint64
			rem, sub = wideDivMod(rem, bw, wa)
			pw := info.prefixW[i]
			j := selectByPrefixWide(pw, sub)
			child = info.cands[i][j]
			childLocal = wideSubInPlace(sub, pw[j])
		}
		ci := s.info[child.ID]
		var (
			ch  *plan.Node
			err error
		)
		if ci != nil && ci.fits {
			v, _ := wideToU64(childLocal)
			ch, err = s.unrankExpr64(child, v, a)
		} else {
			ch, err = s.unrankExprWide(child, childLocal, a, wa)
		}
		if err != nil {
			return nil, err
		}
		node.Children[i] = ch
	}
	if len(rem) != 0 {
		return nil, fmt.Errorf("core: local rank overflow at operator %s", e.Name())
	}
	return node, nil
}

// rankExprWide is the inverse of unrankExprWide: the local rank of the
// plan rooted at n as canonical limbs, dropping to rankExpr64 on any
// operator whose subtree fits uint64.
func (s *Space) rankExprWide(n *plan.Node) ([]uint64, error) {
	info := s.info[n.Expr.ID]
	if info == nil {
		return nil, fmt.Errorf("core: operator %s is not part of this space", n.Expr.Name())
	}
	if info.fits {
		r, err := s.rankExpr64(n)
		if err != nil {
			return nil, err
		}
		return wideFromU64(r), nil
	}
	if len(n.Children) != len(info.cands) {
		return nil, fmt.Errorf("core: operator %s has %d child slots, plan node has %d",
			n.Expr.Name(), len(info.cands), len(n.Children))
	}
	var rl []uint64
	base := []uint64{1}
	for i, child := range n.Children {
		j := -1
		for idx, c := range info.cands[i] {
			if c == child.Expr {
				j = idx
				break
			}
		}
		if j < 0 {
			return nil, fmt.Errorf("core: %s is not a valid child %d of %s in this space",
				child.Expr.Name(), i, n.Expr.Name())
		}
		childLocal, err := s.rankExprWide(child)
		if err != nil {
			return nil, err
		}
		var prefixVal, bVal []uint64
		if info.bW == nil || info.bW[i] == nil {
			prefixVal = wideFromU64(info.prefix64[i][j])
			bVal = wideFromU64(info.b64[i])
		} else {
			prefixVal = info.prefixW[i][j]
			bVal = info.bW[i]
		}
		rl = wideAdd(rl, wideMul(wideAdd(prefixVal, childLocal), base))
		base = wideMul(base, bVal)
	}
	return rl, nil
}
