package core

import (
	"fmt"

	"repro/internal/memo"
	"repro/internal/plan"
)

// This file is the uint64 arithmetic tier: the bijection of unrank.go
// with every base, prefix sum, and rank a native uint64.
// It serves spaces for which Space.FitsUint64() is true, which Prepare
// establishes with overflow-checked counting; within that regime the
// mixed-radix decomposition cannot overflow (every intermediate value
// is bounded by the total). The wide tier also hands it every subtree
// whose count fits uint64.

// Arena is a reusable allocation buffer for unranking. Plan nodes and
// child-pointer slices are carved out of backing arrays that are
// truncated — not freed — between calls, so steady-state UnrankInto,
// UnrankWideInto, and Sampler.Each perform zero heap allocations.
// Plans built from an Arena are valid only until the next call that
// resets it; callers that retain plans pass a nil arena (fresh
// allocations) instead. The zero value is ready to use. An Arena must
// not be shared across goroutines.
type Arena struct {
	nodes []plan.Node
	kids  []*plan.Node

	// wide holds the limb scratch of the wide tier's decomposer, so one
	// Arena serves every tier alike.
	wide WideArena
	// rank is UnrankBigInto's big.Int-to-limbs conversion buffer.
	rank []uint64
}

// Reset recycles the arena, invalidating all plans previously built
// from it.
func (a *Arena) Reset() {
	a.nodes = a.nodes[:0]
	a.kids = a.kids[:0]
	a.wide.Reset()
}

func (a *Arena) newNode(e *memo.Expr) *plan.Node {
	a.nodes = append(a.nodes, plan.Node{Expr: e})
	return &a.nodes[len(a.nodes)-1]
}

func (a *Arena) newChildren(k int) []*plan.Node {
	start := len(a.kids)
	for i := 0; i < k; i++ {
		a.kids = append(a.kids, nil)
	}
	return a.kids[start : start+k : start+k]
}

// errNotUint64 reports use of a uint64-only entry point on a space
// served by the wide tier.
func (s *Space) errNotUint64() error {
	return fmt.Errorf("core: space holds %s plans, beyond uint64; the wide tier serves it (see Space.Wide)", s.total)
}

// UnrankInto constructs the plan with rank r on the uint64 tier, inside
// a, reusing its buffers: after the arena has warmed up, the call
// performs no heap allocation. The returned plan is valid until the
// next UnrankInto or Reset on the same arena; a == nil allocates fresh,
// retainable nodes. It fails when the space exceeds uint64 or was
// forced onto the wide tier.
func (s *Space) UnrankInto(r uint64, a *Arena) (*plan.Node, error) {
	if a == nil {
		return s.unrank64(r, nil)
	}
	a.Reset()
	return s.unrank64(r, a)
}

func (s *Space) unrank64(r uint64, a *Arena) (*plan.Node, error) {
	if !s.fits {
		return nil, s.errNotUint64()
	}
	if r >= s.total64 {
		return nil, fmt.Errorf("core: rank %d out of range [0, %d)", r, s.total64)
	}
	k := selectByPrefix64(s.prefix64, r)
	return s.unrankExpr64(s.rootOps[k], r-s.prefix64[k], a)
}

// unrankExpr64 builds the plan rooted at e with local rank rl in
// [0, N(e)): a little-endian mixed-radix decomposition,
// rl = Σ_i s(i)·B_v(i-1) with B_v(0) = 1, which is exactly the paper's
// s(i) = ⌊R(i)/B(i-1)⌋, R(i) = R(i+1) mod B(i) computed iteratively.
// a == nil means heap-allocate each node.
func (s *Space) unrankExpr64(e *memo.Expr, rl uint64, a *Arena) (*plan.Node, error) {
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
		if rl != 0 {
			return nil, fmt.Errorf("core: leaf operator %s given non-zero local rank %d", e.Name(), rl)
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
		b := info.b64[i]
		if b == 0 {
			return nil, fmt.Errorf("core: operator %s has no candidates for child %d", e.Name(), i)
		}
		// Division by the slot base rides the precomputed reciprocal: a
		// multiply-high instead of a hardware DIV, per slot, per unrank.
		q := info.div64[i].quo(rem)
		sub := rem - q*b
		rem = q
		prefix := info.prefix64[i]
		j := selectByPrefix64(prefix, sub)
		child, err := s.unrankExpr64(info.cands[i][j], sub-prefix[j], a)
		if err != nil {
			return nil, err
		}
		node.Children[i] = child
	}
	if rem != 0 {
		return nil, fmt.Errorf("core: local rank overflow at operator %s", e.Name())
	}
	return node, nil
}

// selectByPrefix64 returns the index k with prefix[k] <= r <
// prefix[k+1] (prefix[0] = 0, the last entry is the total). Short candidate lists take a
// linear scan; wide lists take a galloping probe (rank mass is often
// front-loaded) that brackets the answer, then a branch-free binary
// search inside the bracket — the compiler turns the conditional
// advance into a CMOV, so wide candidate lists stop paying one
// mispredicted branch per entry.
func selectByPrefix64(prefix []uint64, r uint64) int {
	n := len(prefix) - 1 // bucket count
	if n <= 8 {
		k := 0
		for k+1 < n && prefix[k+1] <= r {
			k++
		}
		return k
	}
	hi := 1
	for hi < n && prefix[hi] <= r {
		hi <<= 1
	}
	if hi > n {
		hi = n
	}
	base := hi >> 1 // prefix[base] <= r by the gallop invariant
	cnt := hi - base
	for cnt > 1 {
		half := cnt >> 1
		if prefix[base+half] <= r {
			base += half
		}
		cnt -= half
	}
	return base
}

// Rank64 computes the rank of a plan on the uint64 tier — the inverse
// of UnrankInto.
func (s *Space) Rank64(n *plan.Node) (uint64, error) {
	if !s.fits {
		return 0, s.errNotUint64()
	}
	for k, e := range s.rootOps {
		if e == n.Expr {
			local, err := s.rankExpr64(n)
			if err != nil {
				return 0, err
			}
			return local + s.prefix64[k], nil
		}
	}
	return 0, fmt.Errorf("core: plan root %s is not a root-group operator of this space", n.Expr.Name())
}

func (s *Space) rankExpr64(n *plan.Node) (uint64, error) {
	info := s.info[n.Expr.ID]
	if info == nil {
		return 0, fmt.Errorf("core: operator %s is not part of this space", n.Expr.Name())
	}
	if len(n.Children) != len(info.cands) {
		return 0, fmt.Errorf("core: operator %s has %d child slots, plan node has %d",
			n.Expr.Name(), len(info.cands), len(n.Children))
	}
	var rl uint64
	base := uint64(1)
	for i, child := range n.Children {
		j := -1
		for idx, c := range info.cands[i] {
			if c == child.Expr {
				j = idx
				break
			}
		}
		if j < 0 {
			return 0, fmt.Errorf("core: %s is not a valid child %d of %s in this space",
				child.Expr.Name(), i, n.Expr.Name())
		}
		childLocal, err := s.rankExpr64(child)
		if err != nil {
			return 0, err
		}
		rl += (info.prefix64[i][j] + childLocal) * base
		base *= info.b64[i]
	}
	return rl, nil
}
