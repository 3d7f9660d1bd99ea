package core

import (
	"fmt"
	"math/big"

	"repro/internal/memo"
	"repro/internal/plan"
)

// Unrank constructs the plan with rank r, for r in [0, N). This is the
// paper's Section 3.3: the root operator is selected by cumulative
// counts, its local rank is decomposed into per-child sub-ranks in the
// mixed-radix system with bases b_v(i), and each sub-rank is unranked
// recursively in the child's candidate list. Unranking is O(m)
// arithmetic operations for a plan of m operators, on whichever tier
// serves the space (see UnrankWideInto). The plan is freshly allocated.
func (s *Space) Unrank(r *big.Int) (*plan.Node, error) {
	return s.UnrankBigInto(r, nil)
}

// UnrankBigInto is Unrank reusing an arena: the rank converts to limbs
// in a's buffer and unranks through UnrankWideInto, so on the uint64
// and wide tiers a warmed arena performs no steady-state allocation
// (the big tier allocates fresh — it is the oracle, not a production
// path). The returned plan is valid until the next unranking call on
// the same arena; a == nil allocates fresh, retainable nodes.
func (s *Space) UnrankBigInto(r *big.Int, a *Arena) (*plan.Node, error) {
	if r.Sign() < 0 {
		return nil, fmt.Errorf("core: rank %s out of range [0, %s)", r, s.total)
	}
	if a == nil {
		return s.UnrankWideInto(bigToLimbs(r, nil), nil)
	}
	a.rank = bigToLimbs(r, a.rank)
	return s.UnrankWideInto(a.rank, a)
}

// UnrankWideInto constructs the plan with little-endian limb rank r on
// every tier; r need not be canonical and is not modified. With a
// non-nil arena the plan is built inside a, reusing its node and limb
// buffers — after warm-up the uint64 and wide tiers perform no heap
// allocation, and the plan is valid until the next unranking call or
// Reset on a. With a == nil the plan is freshly allocated and
// independent of the space.
func (s *Space) UnrankWideInto(r []uint64, a *Arena) (*plan.Node, error) {
	if a == nil {
		var wa WideArena
		return s.unrankLimbs(r, nil, &wa)
	}
	a.Reset()
	return s.unrankLimbs(r, a, &a.wide)
}

// unrankLimbs is the one tier dispatch behind every unranking entry
// point: native uint64 when the space fits, the wide limb decomposer
// beyond 2^64, and math/big only under WithBigArithmetic. Nodes come
// from a (nil: heap), limb scratch from wa.
func (s *Space) unrankLimbs(r []uint64, a *Arena, wa *WideArena) (*plan.Node, error) {
	r = wideNorm(r)
	if wideCmp(r, s.totalW) >= 0 {
		return nil, fmt.Errorf("core: rank %s out of range [0, %s)", limbsToBig(r), s.total)
	}
	switch s.tier {
	case tierUint64:
		v, _ := wideToU64(r)
		return s.unrank64(v, a)
	case tierWide:
		return s.unrankWide(r, a, wa)
	default:
		return s.unrankBig(limbsToBig(r))
	}
}

// unrankBig is the math/big oracle's unranking, reached only through
// unrankLimbs on a WithBigArithmetic space; r is in range.
func (s *Space) unrankBig(r *big.Int) (*plan.Node, error) {
	// Select the root operator: the first covers ranks 0..N(v1)-1, the
	// second N(v1)..N(v1)+N(v2)-1, and so on.
	k := selectByPrefix(s.prefix, r)
	local := new(big.Int).Sub(r, s.prefix[k])
	return s.unrankExpr(s.rootOps[k], local)
}

// unrankExpr builds the plan rooted at e with local rank rl in [0, N(e)).
func (s *Space) unrankExpr(e *memo.Expr, rl *big.Int) (*plan.Node, error) {
	info := s.info[e.ID]
	if info == nil {
		return nil, fmt.Errorf("core: operator %s is not part of this space", e.Name())
	}
	if len(info.cands) == 0 {
		if rl.Sign() != 0 {
			return nil, fmt.Errorf("core: leaf operator %s given non-zero local rank %s", e.Name(), rl)
		}
		return &plan.Node{Expr: e}, nil
	}
	node := &plan.Node{Expr: e, Children: make([]*plan.Node, len(info.cands))}
	// Little-endian mixed-radix decomposition: rl = Σ_i s(i)·B_v(i-1)
	// with B_v(0) = 1, which is exactly the paper's
	// s(i) = ⌊R(i)/B(i-1)⌋, R(i) = R(i+1) mod B(i) computed iteratively.
	rem := new(big.Int).Set(rl)
	sub := new(big.Int)
	for i := range info.cands {
		if info.b[i].Sign() == 0 {
			return nil, fmt.Errorf("core: operator %s has no candidates for child %d", e.Name(), i)
		}
		rem.DivMod(rem, info.b[i], sub)
		j := selectByPrefix(info.prefix[i], sub)
		childLocal := new(big.Int).Sub(sub, info.prefix[i][j])
		child, err := s.unrankExpr(info.cands[i][j], childLocal)
		if err != nil {
			return nil, err
		}
		node.Children[i] = child
	}
	if rem.Sign() != 0 {
		return nil, fmt.Errorf("core: local rank overflow at operator %s", e.Name())
	}
	return node, nil
}

// selectByPrefix returns the index k with prefix[k] <= r < prefix[k+1].
// prefix is strictly structured (prefix[0] = 0, last = total), so a
// linear scan is exact; candidate lists are short (a handful of physical
// operators per group), making binary search unnecessary.
func selectByPrefix(prefix []*big.Int, r *big.Int) int {
	k := 0
	for k+1 < len(prefix)-1 && prefix[k+1].Cmp(r) <= 0 {
		k++
	}
	return k
}

// Rank computes the integer the given plan maps to — the inverse of
// Unrank. It is used by property tests (Rank(Unrank(r)) == r) and to
// answer the paper's "what number did the optimizer's own choice get?".
func (s *Space) Rank(n *plan.Node) (*big.Int, error) {
	if s.fits {
		r, err := s.Rank64(n)
		if err != nil {
			return nil, err
		}
		return new(big.Int).SetUint64(r), nil
	}
	if s.tier == tierWide {
		return s.rankWide(n)
	}
	for k, e := range s.rootOps {
		if e == n.Expr {
			local, err := s.rankExpr(n)
			if err != nil {
				return nil, err
			}
			return local.Add(local, s.prefix[k]), nil
		}
	}
	return nil, fmt.Errorf("core: plan root %s is not a root-group operator of this space", n.Expr.Name())
}

func (s *Space) rankExpr(n *plan.Node) (*big.Int, error) {
	info := s.info[n.Expr.ID]
	if info == nil {
		return nil, fmt.Errorf("core: operator %s is not part of this space", n.Expr.Name())
	}
	if len(n.Children) != len(info.cands) {
		return nil, fmt.Errorf("core: operator %s has %d child slots, plan node has %d",
			n.Expr.Name(), len(info.cands), len(n.Children))
	}
	rl := new(big.Int)
	base := new(big.Int).Set(bigOne)
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
		childLocal, err := s.rankExpr(child)
		if err != nil {
			return nil, err
		}
		sub := new(big.Int).Add(info.prefix[i][j], childLocal)
		rl.Add(rl, sub.Mul(sub, base))
		base.Mul(base, info.b[i])
	}
	return rl, nil
}
