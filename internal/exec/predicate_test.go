package exec

import (
	"math"
	"testing"

	"repro/internal/algebra"
	"repro/internal/data"
)

// The rows of these tests have two columns: #1 at position 0, #2 at 1.
var kernelSchema = schema{1, 2}

func colRef(id algebra.ColID, k data.Kind) *algebra.ColRefExpr {
	return &algebra.ColRefExpr{Col: algebra.Column{ID: id, Name: "c", Kind: k, Rel: 0, ColIdx: int(id) - 1}}
}

// kernelStrings stands for a DB's table of strings: the string values of
// the rows below are interned in it.
var kernelStrings = data.NewStrings()

func str(s string) data.Value { return kernelStrings.Intern(s) }

// lit is the literal of v; a string literal carries the text of v.
func lit(v data.Value) *algebra.ConstExpr {
	if v.K == data.KindString {
		return algebra.NewStringConst(kernelStrings.Text(v))
	}
	return &algebra.ConstExpr{Val: v}
}

// absentLits are string constants no row holds: they must equal nothing,
// and still order by their text.
var absentLits = []*algebra.ConstExpr{
	algebra.NewStringConst("aa"), algebra.NewStringConst("0"),
	algebra.NewStringConst("zzz"), algebra.NewStringConst("abcd "),
}

func cmpExpr(op algebra.BinOp, l, r algebra.Scalar) algebra.Scalar {
	return &algebra.BinaryExpr{Op: op, L: l, R: r, K: data.KindBool}
}

var cmpOps = []algebra.BinOp{algebra.OpEq, algebra.OpNe, algebra.OpLt, algebra.OpLe, algebra.OpGt, algebra.OpGe}

// checkAgainstGeneral compares the conjunction compiler with the general
// compile closure over the AND of preds on every row: both must keep the
// same rows and return the same error. Both compile into one overlay of
// the rows' string table, as the predicates of one plan do.
func checkAgainstGeneral(t testing.TB, base *data.Strings, preds []algebra.Scalar, rows []data.Row) {
	t.Helper()
	strs := base.Overlay()
	conj, err := compileConjunction(strs, preds, kernelSchema)
	if err != nil {
		t.Fatal(err)
	}
	general, err := compile(strs, algebra.AndAll(preds), kernelSchema)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		keep, kerr := conj.keep(r)
		v, gerr := general(r)
		want := gerr == nil && !v.IsNull() && v.Bool()
		if keep != want || errString(kerr) != errString(gerr) {
			t.Fatalf("%v on %v: kernels keep=%v err=%v, general keep=%v err=%v",
				preds, r, keep, kerr, want, gerr)
		}
	}
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// mustKernel fails unless x compiles to a typed kernel rather than to
// the general closure, so the differential checks test what they claim.
func mustKernel(t testing.TB, x algebra.Scalar) {
	t.Helper()
	if compileKernel(kernelStrings.Overlay(), x, kernelSchema) == nil {
		t.Fatalf("%v: no kernel", x)
	}
}

// kernelValues are the non-NULL values each declared kind is tested on.
var kernelValues = map[data.Kind][]data.Value{
	data.KindInt: {
		data.NewInt(0), data.NewInt(1), data.NewInt(-1),
		data.NewInt(1 << 53), data.NewInt(1<<53 + 1),
		data.NewInt(math.MinInt64), data.NewInt(math.MaxInt64),
	},
	data.KindDate: {
		data.NewDate(0), data.NewDate(-1), data.NewDate(9204), data.NewDate(9205),
		data.NewDate(math.MinInt64), data.NewDate(math.MaxInt64),
	},
	data.KindFloat: {
		data.NewFloat(0), data.NewFloat(math.Copysign(0, -1)), data.NewFloat(math.NaN()),
		data.NewFloat(1 << 53), data.NewFloat(1.5), data.NewFloat(-1),
		data.NewFloat(math.Inf(1)), data.NewFloat(math.Inf(-1)),
	},
	data.KindString: {
		str(""), str("a"), str("ab"), str("abc"), str("abd"), str("b"),
	},
}

// kindPairs are the declared (column, other side) kinds with kernels.
var kindPairs = [][2]data.Kind{
	{data.KindInt, data.KindInt},
	{data.KindDate, data.KindDate},
	{data.KindFloat, data.KindFloat},
	{data.KindString, data.KindString},
	{data.KindInt, data.KindFloat},
	{data.KindFloat, data.KindInt},
}

// withNull returns vals and NULL.
func withNull(vals []data.Value) []data.Value {
	return append(append([]data.Value(nil), vals...), data.Null())
}

// TestPredicateKernelsMatchGeneral is the kernels' differential test:
// every kernel shape against the general closure, on the values where
// typed comparison and data.Compare could part ways.
func TestPredicateKernelsMatchGeneral(t *testing.T) {
	t.Run("comparisons", testComparisonKernels)
	t.Run("undeclared_kinds", testUndeclaredKinds)
	t.Run("like", testLikeKernels)
	t.Run("conjunctions", testConjunctionKleeneOrder)
}

func testComparisonKernels(t *testing.T) {
	for _, kp := range kindPairs {
		lk, rk := kp[0], kp[1]
		lv, rv := withNull(kernelValues[lk]), withNull(kernelValues[rk])
		for _, op := range cmpOps {
			// col op col: every pair of values, NULL on either side.
			x := cmpExpr(op, colRef(1, lk), colRef(2, rk))
			mustKernel(t, x)
			var rows []data.Row
			for _, a := range lv {
				for _, b := range rv {
					rows = append(rows, data.Row{a, b})
				}
			}
			checkAgainstGeneral(t, kernelStrings, []algebra.Scalar{x}, rows)

			// col op const and const op col: every value against every
			// constant. A NULL literal has no kernel; it is still checked.
			rows = rows[:0]
			for _, a := range lv {
				rows = append(rows, data.Row{a, data.Null()})
			}
			var lits []*algebra.ConstExpr
			for _, c := range rv {
				lits = append(lits, lit(c))
			}
			if rk == data.KindString {
				lits = append(lits, absentLits...)
			}
			for _, c := range lits {
				for _, x := range []algebra.Scalar{
					cmpExpr(op, colRef(1, lk), c),
					cmpExpr(op, c, colRef(1, lk)),
				} {
					if !c.Val.IsNull() {
						mustKernel(t, x)
					}
					checkAgainstGeneral(t, kernelStrings, []algebra.Scalar{x}, rows)
				}
			}
		}
	}
}

// testUndeclaredKinds feeds values whose kind is not the column's
// declared kind: kernels must fall back to data.Compare, errors included.
func testUndeclaredKinds(t *testing.T) {
	odd := []data.Value{data.NewInt(3), data.NewFloat(3), str("3"), data.NewDate(3), data.NewBool(true)}
	for _, kp := range kindPairs {
		lk, rk := kp[0], kp[1]
		for _, op := range cmpOps {
			var rows []data.Row
			for _, a := range odd {
				for _, b := range odd {
					rows = append(rows, data.Row{a, b})
				}
			}
			checkAgainstGeneral(t, kernelStrings, []algebra.Scalar{cmpExpr(op, colRef(1, lk), colRef(2, rk))}, rows)
			for _, c := range kernelValues[rk] {
				checkAgainstGeneral(t, kernelStrings, []algebra.Scalar{cmpExpr(op, colRef(1, lk), lit(c))}, rows)
			}
			if rk == data.KindString {
				for _, c := range absentLits {
					checkAgainstGeneral(t, kernelStrings, []algebra.Scalar{cmpExpr(op, colRef(1, lk), c)}, rows)
				}
			}
		}
	}
}

func testLikeKernels(t *testing.T) {
	shapes := map[string]algebra.LikeShape{
		"abc": algebra.LikeExact, "": algebra.LikeExact,
		"ab%": algebra.LikePrefix, "%bc": algebra.LikeSuffix, "%b%": algebra.LikeContains,
		"a_c": algebra.LikeComplex, "%": algebra.LikeComplex, "a%c": algebra.LikeComplex, "%_%": algebra.LikeComplex,
	}
	var rows []data.Row
	for _, s := range []string{"", "a", "ab", "abc", "abcd", "xabc", "xbx", "abcabc", "b", "%"} {
		rows = append(rows, data.Row{str(s), data.Null()})
	}
	rows = append(rows, data.Row{data.Null(), data.Null()}, data.Row{data.NewInt(7), data.Null()})
	for pattern, shape := range shapes {
		if got := algebra.ClassifyLike(pattern); got != shape {
			t.Fatalf("ClassifyLike(%q) = %d, want %d", pattern, got, shape)
		}
		for _, negate := range []bool{false, true} {
			x := &algebra.LikeExpr{X: colRef(1, data.KindString), Pattern: pattern, Negate: negate}
			mustKernel(t, x)
			checkAgainstGeneral(t, kernelStrings, []algebra.Scalar{x}, rows)
		}
	}
}

// testConjunctionKleeneOrder pins the AND semantics the kernels keep: an
// UNKNOWN conjunct does not stop evaluation, so a later division by zero
// still fails the row; a FALSE one does, so the division never runs.
func testConjunctionKleeneOrder(t *testing.T) {
	divByZero := cmpExpr(algebra.OpGt,
		&algebra.BinaryExpr{Op: algebra.OpDiv, L: colRef(2, data.KindFloat), R: lit(data.NewFloat(0)), K: data.KindFloat},
		lit(data.NewFloat(1)))
	eqOne := cmpExpr(algebra.OpEq, colRef(1, data.KindInt), lit(data.NewInt(1)))
	mustKernel(t, eqOne)
	preds := []algebra.Scalar{eqOne, divByZero}
	unknown := data.Row{data.Null(), data.NewFloat(2)}
	falseRow := data.Row{data.NewInt(2), data.NewFloat(2)}
	checkAgainstGeneral(t, kernelStrings, preds, []data.Row{unknown, falseRow, {data.NewInt(1), data.NewFloat(2)}})

	conj, err := compileConjunction(kernelStrings.Overlay(), preds, kernelSchema)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conj.keep(unknown); err == nil {
		t.Error("UNKNOWN conjunct hid the division by zero after it")
	}
	if keep, err := conj.keep(falseRow); keep || err != nil {
		t.Errorf("FALSE conjunct: keep=%v err=%v, want false, nil", keep, err)
	}
	// A nested AND inside one predicate flattens into the same list.
	nested, err := compileConjunction(kernelStrings.Overlay(), []algebra.Scalar{algebra.AndAll(preds)}, kernelSchema)
	if err != nil {
		t.Fatal(err)
	}
	if len(nested) != 2 {
		t.Errorf("nested AND compiled to %d conjuncts, want 2", len(nested))
	}
}

// FuzzPredicateKernel checks one kernel shape per input against the
// general closure. op 0-5 is a comparison, 6-7 is [NOT] LIKE with constS
// as the pattern, 8 is BETWEEN the constant and the other column's
// value, and 9 is IN (constant, other column's value); kind picks a
// kindPairs entry. In nulls, bit 1 makes the column NULL, bit 2 the
// other column, and bit 16 gives the column a value of the other side's
// kind instead of its declared one. The rows' strings are the data: a
// string constant that no row holds is absent from it.
func FuzzPredicateKernel(f *testing.F) {
	f.Add(uint8(0), uint8(0), int64(1<<53), 0.0, "", int64(1<<53+1), 0.0, "", uint8(0))
	f.Add(uint8(2), uint8(4), int64(1<<53+1), 0.0, "", int64(0), float64(1<<53), "", uint8(0))
	f.Add(uint8(1), uint8(2), int64(0), math.Copysign(0, -1), "", int64(0), 0.0, "", uint8(16))
	f.Add(uint8(3), uint8(2), int64(0), math.NaN(), "", int64(0), 1.0, "", uint8(0))
	f.Add(uint8(5), uint8(0), int64(math.MinInt64), 0.0, "", int64(math.MaxInt64), 0.0, "", uint8(16))
	f.Add(uint8(4), uint8(3), int64(0), 0.0, "abc", int64(0), 0.0, "abd", uint8(16))
	f.Add(uint8(0), uint8(3), int64(0), 0.0, "", int64(0), 0.0, "", uint8(1))
	f.Add(uint8(2), uint8(5), int64(0), 2.5, "", int64(3), 0.0, "", uint8(2))
	f.Add(uint8(6), uint8(3), int64(0), 0.0, "xgreeny", int64(0), 0.0, "%green%", uint8(0))
	f.Add(uint8(7), uint8(3), int64(0), 0.0, "abc", int64(0), 0.0, "a_c", uint8(0))
	f.Add(uint8(0), uint8(1), int64(9204), 0.0, "", int64(9205), 0.0, "", uint8(16))
	// String constants absent from the data, under =, <>, <, >=,
	// BETWEEN, IN and LIKE, with the other column NULL so that the
	// constant is the only text beside the column's.
	for _, op := range []uint8{0, 1, 2, 5, 8, 9, 6} {
		f.Add(op, uint8(3), int64(0), 0.0, "BRAZIL", int64(0), 0.0, "MARS", uint8(2))
		f.Add(op, uint8(3), int64(0), 0.0, "", int64(0), 0.0, "zz%", uint8(2))
	}
	f.Add(uint8(6), uint8(2), int64(0), -41.0, "gr%e", int64(0), 59.0, "%r%", uint8(0))
	f.Add(uint8(8), uint8(3), int64(0), 0.0, "b", int64(0), 0.0, "a", uint8(0))
	f.Add(uint8(9), uint8(3), int64(0), 0.0, "b", int64(0), 0.0, "a", uint8(0))
	f.Fuzz(func(t *testing.T, op, kind uint8, colI int64, colF float64, colS string,
		constI int64, constF float64, constS string, nulls uint8) {
		db := data.NewStrings()
		if op%10 == 6 || op%10 == 7 {
			x := &algebra.LikeExpr{X: colRef(1, data.KindString), Pattern: constS, Negate: op%10 == 7}
			v := db.Intern(colS)
			if nulls&1 != 0 {
				v = data.Null()
			}
			mustKernel(t, x)
			checkAgainstGeneral(t, db, []algebra.Scalar{x}, []data.Row{{v, data.Null()}})
			return
		}
		kp := kindPairs[int(kind)%len(kindPairs)]
		value := func(k data.Kind, i int64, f float64, s string) data.Value {
			switch k {
			case data.KindInt:
				return data.NewInt(i)
			case data.KindDate:
				return data.NewDate(i)
			case data.KindFloat:
				return data.NewFloat(f)
			}
			return db.Intern(s)
		}
		constant := &algebra.ConstExpr{Val: value(kp[1], constI, constF, "")}
		if kp[1] == data.KindString {
			constant = algebra.NewStringConst(constS)
		}
		colKind := kp[0]
		if nulls&16 != 0 {
			colKind = kp[1]
		}
		a := value(colKind, colI, colF, colS)
		if nulls&1 != 0 {
			a = data.Null()
		}
		var b data.Value // the other column
		if nulls&2 == 0 {
			b = value(kp[1], constI, constF, constS)
		}
		rows := []data.Row{{a, b}}
		col, other := colRef(1, kp[0]), colRef(2, kp[1])
		var shapes [][]algebra.Scalar
		switch op % 10 {
		case 8: // col BETWEEN constant AND other, as the binder lowers it
			shapes = [][]algebra.Scalar{{&algebra.BinaryExpr{Op: algebra.OpAnd, K: data.KindBool,
				L: cmpExpr(algebra.OpGe, col, constant), R: cmpExpr(algebra.OpLe, col, other)}}}
		case 9: // col IN (constant, other)
			shapes = [][]algebra.Scalar{{&algebra.BinaryExpr{Op: algebra.OpOr, K: data.KindBool,
				L: cmpExpr(algebra.OpEq, col, constant), R: cmpExpr(algebra.OpEq, col, other)}}}
		default:
			bop := cmpOps[op%10]
			for _, x := range []algebra.Scalar{
				cmpExpr(bop, col, constant),
				cmpExpr(bop, constant, col),
				cmpExpr(bop, col, other),
			} {
				mustKernel(t, x)
				shapes = append(shapes, []algebra.Scalar{x})
			}
		}
		for _, preds := range shapes {
			checkAgainstGeneral(t, db, preds, rows)
		}
	})
}
