package core

import (
	"math/big"

	"repro/internal/plan"
)

// Enumerate visits every plan of the space in rank order, calling yield
// with each (rank, plan) until yield returns false or the space is
// exhausted. This is the paper's exhaustive generation mode, used "when
// the space of alternatives is small enough for exhaustive testing".
// Yielded plans are freshly allocated and may be retained.
func (s *Space) Enumerate(yield func(r *big.Int, p *plan.Node) bool) error {
	return s.EnumerateRange(new(big.Int), s.total, yield)
}

// EnumerateRange visits plans with ranks in [lo, hi) in order, for
// slicing very large spaces into testable chunks. The range is clamped
// to [0, N) on every tier. One limb counter drives the scan, with one
// reused scratch arena for the decompositions; yielded plans are
// freshly allocated and may be retained.
func (s *Space) EnumerateRange(lo, hi *big.Int, yield func(r *big.Int, p *plan.Node) bool) error {
	if hi.Sign() <= 0 {
		return nil
	}
	hiW := s.totalW
	if hi.Cmp(s.total) < 0 {
		hiW = bigToLimbs(hi, nil)
	}
	var cur []uint64
	if lo.Sign() > 0 {
		cur = bigToLimbs(lo, nil)
	}
	var wa WideArena
	for wideCmp(cur, hiW) < 0 {
		wa.Reset()
		p, err := s.unrankLimbs(cur, nil, &wa)
		if err != nil {
			return err
		}
		if !yield(limbsToBig(cur), p) {
			return nil
		}
		cur = wideIncInPlace(cur)
	}
	return nil
}

// wideIncInPlace adds one to a canonical limb slice, growing it when
// the carry ripples past the top limb.
func wideIncInPlace(x []uint64) []uint64 {
	for i := range x {
		x[i]++
		if x[i] != 0 {
			return x
		}
	}
	return append(x, 1)
}
