package algebra

import (
	"testing"
	"testing/quick"
)

func TestRelSetBasics(t *testing.T) {
	s := SetOf(0, 2, 5)
	if !s.Has(0) || !s.Has(2) || !s.Has(5) || s.Has(1) {
		t.Errorf("membership wrong for %s", s)
	}
	if s.Count() != 3 {
		t.Errorf("Count = %d", s.Count())
	}
	if got := s.Indices(); len(got) != 3 || got[0] != 0 || got[1] != 2 || got[2] != 5 {
		t.Errorf("Indices = %v", got)
	}
	if s.String() != "{0,2,5}" {
		t.Errorf("String = %s", s.String())
	}
	if !SetOf(3).Single() || SetOf(1, 2).Single() || RelSet(0).Single() {
		t.Error("Single misbehaves")
	}
	if !RelSet(0).Empty() || s.Empty() {
		t.Error("Empty misbehaves")
	}
}

func TestRelSetAlgebraProperties(t *testing.T) {
	// Union is commutative, subset relations hold, and union counts
	// obey inclusion-exclusion.
	f := func(a, b uint16) bool {
		x, y := RelSet(a), RelSet(b)
		u := x.Union(y)
		if u != y.Union(x) {
			return false
		}
		if !x.SubsetOf(u) || !y.SubsetOf(u) {
			return false
		}
		return u.Count() == x.Count()+y.Count()-RelSet(a&b).Count()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRelSetIndicesRoundTrip(t *testing.T) {
	f := func(a uint32) bool {
		s := RelSet(a)
		return SetOf(s.Indices()...) == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
