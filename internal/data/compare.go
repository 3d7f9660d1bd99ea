package data

import (
	"errors"
	"fmt"
	"strings"
)

// Compare orders two values. NULL sorts before every non-NULL value (the
// convention used by the sort operator and result digests). Integers and
// floats compare numerically across kinds, and strings by their text,
// which s resolves; all other cross-kind comparisons are reported as
// errors so that planner bugs surface instead of silently mis-sorting.
func Compare(s *Strings, a, b Value) (int, error) {
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
			return cmpInt(a.Int(), b.Int()), nil
		}
		return cmpFloat(a.Float(), b.Float()), nil
	}
	if a.K != b.K {
		return 0, fmt.Errorf("data: cannot compare %s with %s", a.K, b.K)
	}
	switch a.K {
	case KindBool, KindDate:
		return cmpInt(a.Int(), b.Int()), nil
	case KindString:
		if a.p == b.p {
			return 0, nil
		}
		if s == nil {
			return 0, errors.New("data: comparing strings needs the table that issued their codes")
		}
		return strings.Compare(s.Text(a), s.Text(b)), nil
	default:
		return 0, fmt.Errorf("data: cannot compare values of kind %s", a.K)
	}
}

// Equal reports whether two values compare equal. NULL equals NULL here;
// SQL tri-state logic is applied by the expression evaluator, not by the
// raw comparator. Strings of one table are equal exactly when their codes
// are, so Equal needs no text.
func Equal(a, b Value) bool {
	if a.K == KindString && b.K == KindString {
		return a.p == b.p
	}
	c, err := Compare(nil, a, b)
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
