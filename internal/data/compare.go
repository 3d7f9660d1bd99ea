package data

import (
	"fmt"
	"strings"
)

// Compare orders two values. NULL sorts before every non-NULL value (the
// convention used by the sort operator and result digests). Integers and
// floats compare numerically across kinds; all other cross-kind
// comparisons are reported as errors so that planner bugs surface instead
// of silently mis-sorting.
func Compare(a, b Value) (int, error) {
	if a.K == KindNull || b.K == KindNull {
		switch {
		case a.K == KindNull && b.K == KindNull:
			return 0, nil
		case a.K == KindNull:
			return -1, nil
		default:
			return 1, nil
		}
	}
	if a.K.Numeric() && b.K.Numeric() {
		if a.K == KindInt && b.K == KindInt {
			return cmpInt(a.I, b.I), nil
		}
		return cmpFloat(a.Float(), b.Float()), nil
	}
	if a.K != b.K {
		return 0, fmt.Errorf("data: cannot compare %s with %s", a.K, b.K)
	}
	switch a.K {
	case KindBool:
		return cmpInt(a.I, b.I), nil
	case KindString:
		return strings.Compare(a.S, b.S), nil
	case KindDate:
		return cmpInt(a.I, b.I), nil
	default:
		return 0, fmt.Errorf("data: cannot compare values of kind %s", a.K)
	}
}

// Equal reports whether two values compare equal. NULL equals NULL here;
// SQL tri-state logic is applied by the expression evaluator, not by the
// raw comparator.
func Equal(a, b Value) bool {
	c, err := Compare(a, b)
	return err == nil && c == 0
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}
