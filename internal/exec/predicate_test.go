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

func lit(v data.Value) *algebra.ConstExpr { return &algebra.ConstExpr{Val: v} }

func cmpExpr(op algebra.BinOp, l, r algebra.Scalar) algebra.Scalar {
	return &algebra.BinaryExpr{Op: op, L: l, R: r, K: data.KindBool}
}

var cmpOps = []algebra.BinOp{algebra.OpEq, algebra.OpNe, algebra.OpLt, algebra.OpLe, algebra.OpGt, algebra.OpGe}

// checkAgainstGeneral compares the conjunction compiler with the general
// compile closure over the AND of preds on every row: both must keep the
// same rows and return the same error.
func checkAgainstGeneral(t testing.TB, preds []algebra.Scalar, rows []data.Row) {
	t.Helper()
	conj, err := compileConjunction(preds, kernelSchema)
	if err != nil {
		t.Fatal(err)
	}
	general, err := compile(algebra.AndAll(preds), kernelSchema)
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
	if compileKernel(x, kernelSchema) == nil {
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
		data.NewString(""), data.NewString("a"), data.NewString("ab"),
		data.NewString("abc"), data.NewString("abd"), data.NewString("b"),
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
			checkAgainstGeneral(t, []algebra.Scalar{x}, rows)

			// col op const and const op col: every value against every
			// constant. A NULL literal has no kernel; it is still checked.
			rows = rows[:0]
			for _, a := range lv {
				rows = append(rows, data.Row{a, data.Null()})
			}
			for _, c := range rv {
				for _, x := range []algebra.Scalar{
					cmpExpr(op, colRef(1, lk), lit(c)),
					cmpExpr(op, lit(c), colRef(1, lk)),
				} {
					if !c.IsNull() {
						mustKernel(t, x)
					}
					checkAgainstGeneral(t, []algebra.Scalar{x}, rows)
				}
			}
		}
	}
}

// testUndeclaredKinds feeds values whose kind is not the column's
// declared kind: kernels must fall back to data.Compare, errors included.
func testUndeclaredKinds(t *testing.T) {
	odd := []data.Value{data.NewInt(3), data.NewFloat(3), data.NewString("3"), data.NewDate(3), data.NewBool(true)}
	for _, kp := range kindPairs {
		lk, rk := kp[0], kp[1]
		for _, op := range cmpOps {
			var rows []data.Row
			for _, a := range odd {
				for _, b := range odd {
					rows = append(rows, data.Row{a, b})
				}
			}
			checkAgainstGeneral(t, []algebra.Scalar{cmpExpr(op, colRef(1, lk), colRef(2, rk))}, rows)
			for _, c := range kernelValues[rk] {
				checkAgainstGeneral(t, []algebra.Scalar{cmpExpr(op, colRef(1, lk), lit(c))}, rows)
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
		rows = append(rows, data.Row{data.NewString(s), data.Null()})
	}
	rows = append(rows, data.Row{data.Null(), data.Null()}, data.Row{data.NewInt(7), data.Null()})
	for pattern, shape := range shapes {
		if got := algebra.ClassifyLike(pattern); got != shape {
			t.Fatalf("ClassifyLike(%q) = %d, want %d", pattern, got, shape)
		}
		for _, negate := range []bool{false, true} {
			x := &algebra.LikeExpr{X: colRef(1, data.KindString), Pattern: pattern, Negate: negate}
			mustKernel(t, x)
			checkAgainstGeneral(t, []algebra.Scalar{x}, rows)
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
	checkAgainstGeneral(t, preds, []data.Row{unknown, falseRow, {data.NewInt(1), data.NewFloat(2)}})

	conj, err := compileConjunction(preds, kernelSchema)
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
	nested, err := compileConjunction([]algebra.Scalar{algebra.AndAll(preds)}, kernelSchema)
	if err != nil {
		t.Fatal(err)
	}
	if len(nested) != 2 {
		t.Errorf("nested AND compiled to %d conjuncts, want 2", len(nested))
	}
}

// FuzzPredicateKernel checks one kernel shape per input against the
// general closure. op 0-5 is a comparison and 6-7 is [NOT] LIKE with
// constS as the pattern; kind picks a kindPairs entry. In nulls, bit 1
// makes the column NULL, bit 2 the other column, and bit 16 gives the
// column a value of the other side's kind instead of its declared one.
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
	f.Fuzz(func(t *testing.T, op, kind uint8, colI int64, colF float64, colS string,
		constI int64, constF float64, constS string, nulls uint8) {
		if op%8 >= 6 {
			x := &algebra.LikeExpr{X: colRef(1, data.KindString), Pattern: constS, Negate: op%8 == 7}
			v := data.NewString(colS)
			if nulls&1 != 0 {
				v = data.Null()
			}
			mustKernel(t, x)
			checkAgainstGeneral(t, []algebra.Scalar{x}, []data.Row{{v, data.Null()}})
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
			return data.NewString(s)
		}
		colKind := kp[0]
		if nulls&16 != 0 {
			colKind = kp[1]
		}
		a, b := value(colKind, colI, colF, colS), value(kp[1], constI, constF, constS)
		if nulls&1 != 0 {
			a = data.Null()
		}
		bc := b
		if nulls&2 != 0 {
			bc = data.Null()
		}
		bop := cmpOps[op%6]
		rows := []data.Row{{a, bc}}
		shapes := []algebra.Scalar{
			cmpExpr(bop, colRef(1, kp[0]), lit(b)),
			cmpExpr(bop, lit(b), colRef(1, kp[0])),
			cmpExpr(bop, colRef(1, kp[0]), colRef(2, kp[1])),
		}
		for _, x := range shapes {
			mustKernel(t, x)
			checkAgainstGeneral(t, []algebra.Scalar{x}, rows)
		}
	})
}
