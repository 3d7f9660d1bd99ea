package algebra

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestMatchLikeBasics(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"green", "green", true},
		{"green", "gre_n", true},
		{"green", "gre__n", false},
		{"forest green metal", "%green%", true},
		{"forest gree", "%green%", false},
		{"green tea", "green%", true},
		{"sea green", "%green", true},
		{"", "%", true},
		{"", "", true},
		{"a", "", false},
		{"abc", "a%c", true},
		{"ac", "a%c", true},
		{"ab", "a%c", false},
		{"anything", "%%", true},
		{"x", "_", true},
		{"xy", "_", false},
		{"aXbXc", "a%b%c", true},
		{"abcb", "a%b", true}, // backtracking: % must not be greedy-only
		// A '%' in the subject is an ordinary byte, never a literal
		// match that consumes the pattern's wildcard.
		{"gr%e", "%r%", true},
		{"a%b", "a%", true},
		{"%x", "%%x", true},
	}
	for _, c := range cases {
		if got := MatchLike(c.s, c.p); got != c.want {
			t.Errorf("MatchLike(%q, %q) = %v, want %v", c.s, c.p, got, c.want)
		}
	}
}

// referenceMatch is an exponential-time but obviously correct matcher the
// production matcher is property-tested against.
func referenceMatch(s, p string) bool {
	if p == "" {
		return s == ""
	}
	switch p[0] {
	case '%':
		for i := 0; i <= len(s); i++ {
			if referenceMatch(s[i:], p[1:]) {
				return true
			}
		}
		return false
	case '_':
		return s != "" && referenceMatch(s[1:], p[1:])
	default:
		return s != "" && s[0] == p[0] && referenceMatch(s[1:], p[1:])
	}
}

func TestMatchLikeAgainstReference(t *testing.T) {
	alphabet := []byte{'a', 'b', '%', '_'}
	gen := func(seed uint32, n int) string {
		var sb strings.Builder
		for i := 0; i < n; i++ {
			sb.WriteByte(alphabet[(seed>>(2*uint(i)))%4])
		}
		return sb.String()
	}
	f := func(sSeed, pSeed uint32) bool {
		s := strings.NewReplacer("%", "c", "_", "d").Replace(gen(sSeed, int(sSeed%7)))
		p := gen(pSeed, int(pSeed%6))
		return MatchLike(s, p) == referenceMatch(s, p)
	}
	cfg := &quick.Config{MaxCount: 2000}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestClassifyLike(t *testing.T) {
	cases := []struct {
		p    string
		want LikeShape
	}{
		{"green", LikeExact},
		{"green%", LikePrefix},
		{"%green", LikeSuffix},
		{"%green%", LikeContains},
		{"%gr%een%", LikeComplex},
		{"g_een", LikeComplex},
		{"%", LikeComplex},
	}
	for _, c := range cases {
		if got := ClassifyLike(c.p); got != c.want {
			t.Errorf("ClassifyLike(%q) = %v, want %v", c.p, got, c.want)
		}
	}
}
