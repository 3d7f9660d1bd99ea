package data

import (
	"testing"
	"testing/quick"
)

func TestValueConstructorsAndAccessors(t *testing.T) {
	if v := NewInt(42); v.K != KindInt || v.Int() != 42 {
		t.Errorf("NewInt: %+v", v)
	}
	if v := NewFloat(2.5); v.K != KindFloat || v.Float() != 2.5 {
		t.Errorf("NewFloat: %+v", v)
	}
	strs := NewStrings()
	if v := strs.Intern("x"); v.K != KindString || strs.Text(v) != "x" {
		t.Errorf("Intern: %+v", v)
	}
	if v := NewBool(true); !v.Bool() {
		t.Errorf("NewBool(true): %+v", v)
	}
	if v := NewBool(false); v.Bool() {
		t.Errorf("NewBool(false): %+v", v)
	}
	if v := NewDate(100); v.K != KindDate || v.Int() != 100 {
		t.Errorf("NewDate: %+v", v)
	}
	if !Null().IsNull() {
		t.Error("Null() is not null")
	}
	if NewInt(0).IsNull() {
		t.Error("NewInt(0) reported null")
	}
}

func TestIntCoercesToFloat(t *testing.T) {
	if got := NewInt(7).Float(); got != 7.0 {
		t.Errorf("NewInt(7).Float() = %v", got)
	}
}

func TestValueString(t *testing.T) {
	strs := NewStrings()
	cases := []struct {
		v    Value
		want string
	}{
		{Null(), "NULL"},
		{NewBool(true), "true"},
		{NewBool(false), "false"},
		{NewInt(-5), "-5"},
		{strs.Intern("hello"), "hello"},
		{NewDate(MustParseDate("1994-01-01")), "1994-01-01"},
	}
	for _, c := range cases {
		if got := strs.Format(c.v); got != c.want {
			t.Errorf("String(%+v) = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestKindString(t *testing.T) {
	names := map[Kind]string{
		KindNull: "NULL", KindBool: "BOOLEAN", KindInt: "INTEGER",
		KindFloat: "FLOAT", KindString: "VARCHAR", KindDate: "DATE",
	}
	for k, want := range names {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", k, got, want)
		}
	}
}

func TestKindNumeric(t *testing.T) {
	if !KindInt.Numeric() || !KindFloat.Numeric() {
		t.Error("int/float should be numeric")
	}
	if KindString.Numeric() || KindDate.Numeric() || KindBool.Numeric() {
		t.Error("string/date/bool should not be numeric")
	}
}

func TestRowCloneIndependent(t *testing.T) {
	r := Row{NewInt(1), NewStrings().Intern("a")}
	c := r.Clone()
	c[0] = NewInt(99)
	if r[0].Int() != 1 {
		t.Error("Clone shares storage with original")
	}
}

func TestCompareBasics(t *testing.T) {
	strs := NewStrings()
	strs.Intern("b") // codes in the opposite order to the texts
	cases := []struct {
		a, b Value
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewInt(2), 1},
		{NewFloat(1.5), NewInt(2), -1},
		{NewInt(2), NewFloat(1.5), 1},
		{strs.Intern("a"), strs.Intern("b"), -1},
		{NewDate(10), NewDate(20), -1},
		{NewBool(false), NewBool(true), -1},
		{Null(), NewInt(0), -1},
		{NewInt(0), Null(), 1},
		{Null(), Null(), 0},
	}
	for _, c := range cases {
		got, err := Compare(strs, c.a, c.b)
		if err != nil {
			t.Errorf("Compare(%v, %v): %v", c.a, c.b, err)
			continue
		}
		if got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareKindMismatch(t *testing.T) {
	strs := NewStrings()
	if _, err := Compare(strs, strs.Intern("a"), NewInt(1)); err == nil {
		t.Error("string vs int comparison should error")
	}
	if _, err := Compare(strs, NewDate(1), NewInt(1)); err == nil {
		t.Error("date vs int comparison should error")
	}
}

// TestCompareIntTotalOrder property: Compare over ints is antisymmetric
// and transitive at sampled triples.
func TestCompareIntTotalOrder(t *testing.T) {
	f := func(a, b int64) bool {
		x, _ := Compare(nil, NewInt(a), NewInt(b))
		y, _ := Compare(nil, NewInt(b), NewInt(a))
		return x == -y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEqual(t *testing.T) {
	if !Equal(NewInt(3), NewFloat(3)) {
		t.Error("3 should equal 3.0")
	}
	if Equal(NewInt(3), NewInt(4)) {
		t.Error("3 should not equal 4")
	}
	if !Equal(Null(), Null()) {
		t.Error("raw comparator treats NULL = NULL")
	}
}
