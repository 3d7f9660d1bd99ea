package core

import (
	"fmt"

	"repro/internal/memo"
	"repro/internal/plan"
)

// This file is the uint64 arithmetic lane: the bijection of unrank.go
// with every base, prefix sum, and rank a native uint64. Its root
// (unrank64) serves spaces whose Arithmetic() is "uint64", which
// Prepare establishes with overflow-checked counting; within that
// regime the mixed-radix decomposition cannot overflow (every
// intermediate value is bounded by the total). Below the root, the
// per-operator lanes unrankOp64 and rankOp64 serve every subtree whose
// count fits uint64, on either tier.

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
	return fmt.Errorf("core: space holds %s plans, beyond uint64; the wide tier serves it (see Space.Arithmetic)", s.total)
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
	k := s.guide64.pick(s.prefix64, r)
	return s.unrankOp64(s.rootOps[k], r-s.prefix64[k], a)
}

// unrankOp64 builds the plan rooted at operator k with local rank rl in
// [0, N(k)): a little-endian mixed-radix decomposition,
// rl = Σ_i s(i)·B_v(i-1) with B_v(0) = 1, which is exactly the paper's
// s(i) = ⌊R(i)/B(i-1)⌋, R(i) = R(i+1) mod B(i) computed iteratively.
// It reads only the index-linked tables; the operator's *memo.Expr is
// stored into the node, not dereferenced. a == nil means heap-allocate
// each node.
func (s *Space) unrankOp64(k int32, rl uint64, a *Arena) (*plan.Node, error) {
	op := &s.ops[k]
	var node *plan.Node
	if a != nil {
		node = a.newNode(op.expr)
	} else {
		node = &plan.Node{Expr: op.expr}
	}
	if op.nslot == 0 {
		if rl != 0 {
			return nil, fmt.Errorf("core: leaf operator %s given non-zero local rank %d", op.expr.Name(), rl)
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
		b := l.b
		if b == 0 {
			return nil, fmt.Errorf("core: operator %s has no candidates for child %d", op.expr.Name(), i)
		}
		// Division by the slot base rides the precomputed reciprocal: a
		// multiply-high instead of a hardware DIV, per slot, per unrank.
		q := l.div.quo(rem)
		sub := rem - q*b
		rem = q
		j := l.guide.pick(l.prefix, sub)
		child, err := s.unrankOp64(l.ops[j], sub-l.prefix[j], a)
		if err != nil {
			return nil, err
		}
		node.Children[i] = child
	}
	if rem != 0 {
		return nil, fmt.Errorf("core: local rank overflow at operator %s", op.expr.Name())
	}
	return node, nil
}

// rankOp64 is the inverse of unrankOp64: the local rank of the plan
// rooted at n, whose operator is k and whose subtree count fits uint64.
func (s *Space) rankOp64(k int32, n *plan.Node) (uint64, error) {
	op := &s.ops[k]
	if op.n64 == 0 {
		return 0, fmt.Errorf("core: operator %s roots no complete plan of this space", n.Expr.Name())
	}
	if len(n.Children) != int(op.nslot) {
		return 0, fmt.Errorf("core: operator %s has %d child slots, plan node has %d",
			n.Expr.Name(), op.nslot, len(n.Children))
	}
	var rl uint64
	base := uint64(1)
	for i, child := range n.Children {
		l := &s.lists[s.slots[op.first+int32(i)]]
		j, ck, err := s.candidate(l, n, i)
		if err != nil {
			return 0, err
		}
		childLocal, err := s.rankOp64(ck, child)
		if err != nil {
			return 0, err
		}
		rl += (l.prefix[j] + childLocal) * base
		base *= l.b
	}
	return rl, nil
}

// candidate finds child i of plan node n in list l: its position and
// its operator index.
func (s *Space) candidate(l *candList, n *plan.Node, i int) (int, int32, error) {
	child := n.Children[i].Expr
	if k, ok := s.opOf(child); ok {
		for j, c := range l.ops {
			if c == k {
				return j, k, nil
			}
		}
	}
	return 0, 0, fmt.Errorf("core: %s is not a valid child %d of %s in this space",
		child.Name(), i, n.Expr.Name())
}
