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

// All collects every plan of the space; callers must check Count first —
// this is intended for the small spaces of unit tests and exhaustive
// verification runs.
func (s *Space) All() ([]*plan.Node, error) {
	if !s.total.IsInt64() {
		return nil, errTooLarge(s.total)
	}
	out := make([]*plan.Node, 0, s.total.Int64())
	err := s.Enumerate(func(_ *big.Int, p *plan.Node) bool {
		out = append(out, p)
		return true
	})
	return out, err
}

func errTooLarge(n *big.Int) error {
	return &SpaceTooLargeError{N: new(big.Int).Set(n)}
}

// SpaceTooLargeError reports an attempt to materialize a space whose size
// exceeds what exhaustive enumeration can handle; callers should fall
// back to sampling, which is the paper's point.
type SpaceTooLargeError struct{ N *big.Int }

func (e *SpaceTooLargeError) Error() string {
	return "core: space holds " + e.N.String() + " plans; enumerate a range or sample instead"
}
