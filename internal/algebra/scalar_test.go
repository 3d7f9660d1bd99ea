package algebra

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/data"
)

func colExpr(id int32, rel int, name string) *ColRefExpr {
	return &ColRefExpr{Col: Column{ID: ColID(id), Name: name, Kind: data.KindInt, Rel: rel, ColIdx: 0}}
}

func TestScalarKinds(t *testing.T) {
	a, b := colExpr(1, 0, "a"), colExpr(2, 1, "b")
	cases := []struct {
		s    Scalar
		want data.Kind
	}{
		{NewStringConst("x"), data.KindString},
		{&BinaryExpr{Op: OpAdd, L: a, R: b, K: data.KindInt}, data.KindInt},
		{&BinaryExpr{Op: OpLt, L: a, R: b, K: data.KindBool}, data.KindBool},
		{&NotExpr{X: &ConstExpr{Val: data.NewBool(true)}}, data.KindBool},
		{&NegExpr{X: a}, data.KindInt},
		{&LikeExpr{X: NewStringConst("s"), Pattern: "%"}, data.KindBool},
		{&YearExpr{X: &ConstExpr{Val: data.NewDate(0)}}, data.KindInt},
		{&CaseExpr{Whens: []CaseWhen{{Cond: &ConstExpr{Val: data.NewBool(true)}, Then: a}}, K: data.KindInt}, data.KindInt},
	}
	for _, c := range cases {
		if got := c.s.Kind(); got != c.want {
			t.Errorf("Kind(%s) = %s, want %s", c.s, got, c.want)
		}
	}
}

func TestScalarRefs(t *testing.T) {
	a, b := colExpr(1, 0, "a"), colExpr(2, 2, "b")
	e := &BinaryExpr{Op: OpAnd, K: data.KindBool,
		L: &BinaryExpr{Op: OpEq, L: a, R: b, K: data.KindBool},
		R: &LikeExpr{X: colExpr(3, 1, "c"), Pattern: "x%"},
	}
	if got := e.Refs(); got != SetOf(0, 1, 2) {
		t.Errorf("Refs = %s", got)
	}
	derived := &ColRefExpr{Col: Column{ID: 9, Rel: -1}}
	if !derived.Refs().Empty() {
		t.Error("derived column should reference no base relations")
	}
	ce := &CaseExpr{
		Whens: []CaseWhen{{Cond: &BinaryExpr{Op: OpEq, L: a, R: a, K: data.KindBool}, Then: b}},
		Else:  colExpr(4, 3, "d"),
		K:     data.KindInt,
	}
	if got := ce.Refs(); got != SetOf(0, 2, 3) {
		t.Errorf("CASE Refs = %s", got)
	}
}

func TestSplitConjunctsAndAndAll(t *testing.T) {
	a, b, c := colExpr(1, 0, "a"), colExpr(2, 0, "b"), colExpr(3, 0, "c")
	mkBool := func(x Scalar) Scalar {
		return &BinaryExpr{Op: OpGt, L: x, R: &ConstExpr{Val: data.NewInt(0)}, K: data.KindBool}
	}
	p1, p2, p3 := mkBool(a), mkBool(b), mkBool(c)
	conj := AndAll([]Scalar{p1, p2, p3})
	parts := SplitConjuncts(conj)
	if len(parts) != 3 {
		t.Fatalf("SplitConjuncts = %d parts", len(parts))
	}
	if parts[0] != p1 || parts[2] != p3 {
		t.Error("conjunct order not preserved")
	}
	if AndAll(nil) != nil {
		t.Error("AndAll(nil) should be nil")
	}
	if AndAll([]Scalar{p1}) != p1 {
		t.Error("AndAll of one element should be the element")
	}
	// An OR is not split.
	or := &BinaryExpr{Op: OpOr, L: p1, R: p2, K: data.KindBool}
	if got := SplitConjuncts(or); len(got) != 1 {
		t.Errorf("OR split into %d parts", len(got))
	}
}

func TestEquiJoinParts(t *testing.T) {
	a, b := colExpr(1, 2, "a"), colExpr(2, 0, "b")
	eq := &BinaryExpr{Op: OpEq, L: a, R: b, K: data.KindBool}
	l, r, ok := EquiJoinParts(eq)
	if !ok {
		t.Fatal("equi join not recognized")
	}
	// Canonical orientation: lower relation index first.
	if l.Rel != 0 || r.Rel != 2 {
		t.Errorf("orientation: %d, %d", l.Rel, r.Rel)
	}
	// Same-relation equality is not a join predicate.
	c := colExpr(3, 2, "c")
	if _, _, ok := EquiJoinParts(&BinaryExpr{Op: OpEq, L: a, R: c, K: data.KindBool}); ok {
		t.Error("same-relation equality accepted")
	}
	// Non-equality comparisons are not equi-joins.
	if _, _, ok := EquiJoinParts(&BinaryExpr{Op: OpLt, L: a, R: b, K: data.KindBool}); ok {
		t.Error("< accepted as equi join")
	}
	// Computed sides are not equi-joins.
	sum := &BinaryExpr{Op: OpAdd, L: a, R: &ConstExpr{Val: data.NewInt(1)}, K: data.KindInt}
	if _, _, ok := EquiJoinParts(&BinaryExpr{Op: OpEq, L: sum, R: b, K: data.KindBool}); ok {
		t.Error("computed equality accepted as equi join")
	}
}

func TestColumnsIn(t *testing.T) {
	a, b := colExpr(1, 0, "a"), colExpr(7, 1, "b")
	e := &CaseExpr{
		Whens: []CaseWhen{{
			Cond: &BinaryExpr{Op: OpEq, L: a, R: b, K: data.KindBool},
			Then: &NegExpr{X: a},
		}},
		Else: &YearExpr{X: &ColRefExpr{Col: Column{ID: 12, Kind: data.KindDate, Rel: 2}}},
		K:    data.KindInt,
	}
	var got []ColID
	ColumnsIn(e, func(c Column) { got = append(got, c.ID) })
	if want := []ColID{1, 7, 1, 12}; !slices.Equal(got, want) {
		t.Fatalf("ColumnsIn visited %v, want %v", got, want)
	}
}

func TestScalarStringsAreCanonical(t *testing.T) {
	a1 := colExpr(1, 0, "n_name")
	a2 := colExpr(9, 1, "n_name")
	// Same name, different binding: canonical strings must differ (this
	// is what keeps Q7's two nation bindings apart in GROUP BY matching).
	if a1.String() == a2.String() {
		t.Error("distinct columns share canonical strings")
	}
	e := &BinaryExpr{Op: OpMul, L: a1, R: &ConstExpr{Val: data.NewFloat(0.5)}, K: data.KindFloat}
	if !strings.Contains(e.String(), "*") || !strings.Contains(e.String(), "0.5") {
		t.Errorf("rendering: %s", e)
	}
	bops := []BinOp{OpAdd, OpSub, OpMul, OpDiv, OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpAnd, OpOr}
	seen := map[string]bool{}
	for _, op := range bops {
		if seen[op.String()] {
			t.Errorf("duplicate operator spelling %q", op)
		}
		seen[op.String()] = true
	}
	for _, op := range []BinOp{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe} {
		if !op.Comparison() {
			t.Errorf("%s should be a comparison", op)
		}
	}
	for _, op := range []BinOp{OpAdd, OpAnd, OpOr} {
		if op.Comparison() {
			t.Errorf("%s should not be a comparison", op)
		}
	}
}
