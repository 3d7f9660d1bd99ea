package algebra

// MatchLike implements SQL LIKE matching with '%' (any sequence) and '_'
// (any single byte) wildcards. The matcher is iterative with the classic
// single-backtrack-point technique, linear for the patterns TPC-H uses
// ('%green%' in Q9).
func MatchLike(s, pattern string) bool {
	var si, pi int
	star, mark := -1, 0
	for si < len(s) {
		switch {
		case pi < len(pattern) && pattern[pi] == '%':
			// Tested first: a '%' in s is not a literal match for the
			// wildcard.
			star = pi
			mark = si
			pi++
		case pi < len(pattern) && (pattern[pi] == '_' || pattern[pi] == s[si]):
			si++
			pi++
		case star >= 0:
			pi = star + 1
			mark++
			si = mark
		default:
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '%' {
		pi++
	}
	return pi == len(pattern)
}

// LikeShape classifies a pattern for selectivity estimation.
type LikeShape uint8

// Pattern shapes, from most to least selective.
const (
	LikeExact    LikeShape = iota // no wildcards
	LikePrefix                    // abc%
	LikeSuffix                    // %abc
	LikeContains                  // %abc%
	LikeComplex                   // anything else
)

// ClassifyLike returns the shape of a LIKE pattern.
func ClassifyLike(pattern string) LikeShape {
	n := len(pattern)
	hasInnerWildcard := func(s string) bool {
		for i := 0; i < len(s); i++ {
			if s[i] == '%' || s[i] == '_' {
				return true
			}
		}
		return false
	}
	switch {
	case !hasInnerWildcard(pattern):
		return LikeExact
	case n >= 2 && pattern[n-1] == '%' && !hasInnerWildcard(pattern[:n-1]):
		return LikePrefix
	case n >= 2 && pattern[0] == '%' && !hasInnerWildcard(pattern[1:]):
		return LikeSuffix
	case n >= 3 && pattern[0] == '%' && pattern[n-1] == '%' && !hasInnerWildcard(pattern[1:n-1]):
		return LikeContains
	default:
		return LikeComplex
	}
}
