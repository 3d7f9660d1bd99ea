package core

import (
	"math/big"

	"repro/internal/plan"
)

// All collects every plan of the space; callers must check Count first —
// this is intended for the small spaces of unit tests.
func (s *Space) All() ([]*plan.Node, error) {
	if !s.total.IsInt64() {
		return nil, &SpaceTooLargeError{N: new(big.Int).Set(s.total)}
	}
	out := make([]*plan.Node, 0, s.total.Int64())
	err := s.Enumerate(func(_ *big.Int, p *plan.Node) bool {
		out = append(out, p)
		return true
	})
	return out, err
}

// SpaceTooLargeError reports an attempt to materialize a space whose size
// exceeds what exhaustive enumeration can handle; callers should fall
// back to sampling, which is the paper's point.
type SpaceTooLargeError struct{ N *big.Int }

func (e *SpaceTooLargeError) Error() string {
	return "core: space holds " + e.N.String() + " plans; enumerate a range or sample instead"
}
