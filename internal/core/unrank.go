package core

import (
	"fmt"
	"math/big"

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
// in a's buffer and unranks through UnrankWideInto, so a warmed arena
// performs no steady-state allocation. The returned plan is valid until
// the next unranking call on the same arena; a == nil allocates fresh,
// retainable nodes.
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
// buffers — after warm-up neither tier performs heap allocation, and
// the plan is valid until the next unranking call or Reset on a. With a == nil the plan is freshly allocated and
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
// otherwise. Nodes come from a (nil: heap), limb scratch from wa.
func (s *Space) unrankLimbs(r []uint64, a *Arena, wa *WideArena) (*plan.Node, error) {
	r = wideNorm(r)
	if wideCmp(r, s.totalW) >= 0 {
		return nil, fmt.Errorf("core: rank %s out of range [0, %s)", limbsToBig(r), s.total)
	}
	if s.fits {
		v, _ := wideToU64(r)
		return s.unrank64(v, a)
	}
	return s.unrankWide(r, a, wa)
}

// Rank computes the integer the given plan maps to — the inverse of
// Unrank. It is used by property tests (Rank(Unrank(r)) == r) and to
// answer the paper's "what number did the optimizer's own choice get?".
func (s *Space) Rank(n *plan.Node) (*big.Int, error) {
	if !s.fits {
		return s.rankWide(n)
	}
	r, err := s.Rank64(n)
	if err != nil {
		return nil, err
	}
	return new(big.Int).SetUint64(r), nil
}
