package exec

import (
	"strings"

	"repro/internal/algebra"
	"repro/internal/data"
	"repro/internal/memo"
)

// truth is a conjunct's SQL three-valued result. UNKNOWN is NULL.
type truth uint8

const (
	truthFalse truth = iota
	truthTrue
	truthUnknown
)

func truthOf(b bool) truth {
	if b {
		return truthTrue
	}
	return truthFalse
}

// kernel evaluates one conjunct against a row.
type kernel func(data.Row) (truth, error)

// conjunction is a compiled predicate list. A row is kept only when the
// AND of its conjuncts is SQL TRUE; the empty conjunction keeps every row.
type conjunction []kernel

// keep evaluates the conjuncts left to right with the general closure's
// Kleene AND: the first FALSE short-circuits, while UNKNOWN rejects the
// row but evaluation goes on, so a later conjunct's error still surfaces.
func (c conjunction) keep(r data.Row) (bool, error) {
	keep := true
	for _, k := range c {
		t, err := k(r)
		if err != nil {
			return false, err
		}
		if t != truthTrue {
			if t == truthFalse {
				return false, nil
			}
			keep = false
		}
	}
	return keep, nil
}

// compileConjunction is the one predicate compiler of scans, joins and
// lookups. It flattens preds into conjuncts and compiles each to a typed
// kernel where its shape has one, or else to the general compile closure.
// Kernels are chosen here, once per plan; strs is the plan's string
// table.
func compileConjunction(strs *data.Strings, preds []algebra.Scalar, in schema) (conjunction, error) {
	c := make(conjunction, 0, len(preds))
	for _, p := range preds {
		for _, x := range algebra.SplitConjuncts(p) {
			if k := compileKernel(strs, x, in); k != nil {
				c = append(c, k)
				continue
			}
			f, err := compile(strs, x, in)
			if err != nil {
				return nil, err
			}
			c = append(c, func(r data.Row) (truth, error) {
				v, err := f(r)
				if err != nil || v.IsNull() {
					return truthUnknown, err
				}
				return truthOf(v.Bool()), nil
			})
		}
	}
	return c, nil
}

// compileKernel returns a typed kernel for x, or nil when x has no
// kernel shape: `col op const`, `const op col` or `col op col` over
// int, date, float, string or mixed int/float, and `col [NOT] LIKE`.
func compileKernel(strs *data.Strings, x algebra.Scalar, in schema) kernel {
	switch e := x.(type) {
	case *algebra.BinaryExpr:
		if !e.Op.Comparison() {
			return nil
		}
		lc, lCol := e.L.(*algebra.ColRefExpr)
		rc, rCol := e.R.(*algebra.ColRefExpr)
		lv, lConst := e.L.(*algebra.ConstExpr)
		rv, rConst := e.R.(*algebra.ConstExpr)
		switch {
		case lCol && rConst:
			return colConstKernel(strs, e.Op, lc, rv, in)
		case lConst && rCol:
			return colConstKernel(strs, flip(e.Op), rc, lv, in)
		case lCol && rCol:
			return colColKernel(strs, e.Op, lc, rc, in)
		}
	case *algebra.LikeExpr:
		if c, ok := e.X.(*algebra.ColRefExpr); ok && c.Col.Kind == data.KindString {
			if p := in.pos(c.Col.ID); p >= 0 {
				return likeKernel(strs, p, e.Pattern, e.Negate)
			}
		}
	}
	return nil
}

// cmpClass is how a kernel compares two declared kinds, mirroring
// data.Compare: on the integer payload, as float64, or as strings (by
// code for = and <>, by text otherwise).
type cmpClass uint8

const (
	cmpNone cmpClass = iota
	cmpInt
	cmpFloat
	cmpString
)

func classOf(a, b data.Kind) cmpClass {
	switch {
	case a == data.KindInt && b == data.KindInt, a == data.KindDate && b == data.KindDate:
		return cmpInt
	case a.Numeric() && b.Numeric():
		return cmpFloat
	case a == data.KindString && b == data.KindString:
		return cmpString
	}
	return cmpNone
}

// outcomes is the set of three-way comparison results (bit c+1 for c in
// -1, 0, 1) that make a comparison operator TRUE.
type outcomes uint8

func outcomesOf(op algebra.BinOp) outcomes {
	switch op {
	case algebra.OpEq:
		return 0b010
	case algebra.OpNe:
		return 0b101
	case algebra.OpLt:
		return 0b001
	case algebra.OpLe:
		return 0b011
	case algebra.OpGt:
		return 0b100
	default: // algebra.OpGe
		return 0b110
	}
}

func (o outcomes) test(c int) truth { return truth(o>>uint(c+1)) & 1 }

// flip mirrors a comparison so `const op col` becomes `col flip(op) const`.
func flip(op algebra.BinOp) algebra.BinOp {
	switch op {
	case algebra.OpLt:
		return algebra.OpGt
	case algebra.OpLe:
		return algebra.OpGe
	case algebra.OpGt:
		return algebra.OpLt
	case algebra.OpGe:
		return algebra.OpLe
	}
	return op
}

// threeWay is data.Compare's numeric rule: NaN compares equal to
// everything, and 0.0 equals -0.0.
func threeWay[T int64 | float64](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// eqOutcome is the three-way outcome of an equality test. For = and <>
// only equal versus unequal matters, and strings are equal exactly when
// their codes are.
func eqOutcome(eq bool) int {
	if eq {
		return 0
	}
	return 1
}

// compareValues is the general comparison of one row's operands, for a
// value whose kind is not the declared one: NULL is UNKNOWN, and any
// other kind goes through data.Compare as the general closure does.
func compareValues(strs *data.Strings, a, b data.Value, o outcomes) (truth, error) {
	if a.IsNull() || b.IsNull() {
		return truthUnknown, nil
	}
	c, err := data.Compare(strs, a, b)
	if err != nil {
		return truthFalse, err
	}
	return o.test(c), nil
}

// colConstKernel compiles `col op cst`. The constant is converted to the
// comparison's representation here; each row checks its value's kind
// once against the column's declared kind. A string constant is looked
// up, not interned: one absent from strs equals no value, so = keeps no
// non-NULL row and <> keeps every one.
func colConstKernel(strs *data.Strings, op algebra.BinOp, col *algebra.ColRefExpr, cst *algebra.ConstExpr, in schema) kernel {
	p, k := in.pos(col.Col.ID), col.Col.Kind
	if p < 0 {
		return nil
	}
	cv, o := cst.Val, outcomesOf(op)
	switch classOf(k, cv.K) {
	case cmpInt:
		c := cv.Int()
		return func(r data.Row) (truth, error) {
			v := &r[p]
			if v.K != k {
				return compareValues(strs, *v, cv, o)
			}
			return o.test(threeWay(v.Int(), c)), nil
		}
	case cmpFloat:
		c := cv.Float()
		return func(r data.Row) (truth, error) {
			v := &r[p]
			if v.K != k {
				return compareValues(strs, *v, cv, o)
			}
			return o.test(threeWay(v.Float(), c)), nil
		}
	case cmpString:
		text := cst.Text
		if op == algebra.OpEq || op == algebra.OpNe {
			c, present := strs.Lookup(text)
			if !present {
				c = cv // a string whose code no value may match
			}
			return func(r data.Row) (truth, error) {
				v := &r[p]
				if v.K != k {
					return compareValues(strs, *v, c, o)
				}
				return o.test(eqOutcome(present && v.Code() == c.Code())), nil
			}
		}
		return func(r data.Row) (truth, error) {
			v := &r[p]
			if v.K != k {
				return compareValues(strs, *v, cv, o)
			}
			return o.test(strings.Compare(strs.Text(*v), text)), nil
		}
	}
	return nil
}

// colColKernel compiles `a op b` over two columns of the row.
func colColKernel(strs *data.Strings, op algebra.BinOp, a, b *algebra.ColRefExpr, in schema) kernel {
	p, q := in.pos(a.Col.ID), in.pos(b.Col.ID)
	if p < 0 || q < 0 {
		return nil
	}
	ak, bk := a.Col.Kind, b.Col.Kind
	o := outcomesOf(op)
	switch classOf(ak, bk) {
	case cmpInt:
		return func(r data.Row) (truth, error) {
			x, y := &r[p], &r[q]
			if x.K != ak || y.K != bk {
				return compareValues(strs, *x, *y, o)
			}
			return o.test(threeWay(x.Int(), y.Int())), nil
		}
	case cmpFloat:
		return func(r data.Row) (truth, error) {
			x, y := &r[p], &r[q]
			if x.K != ak || y.K != bk {
				return compareValues(strs, *x, *y, o)
			}
			return o.test(threeWay(x.Float(), y.Float())), nil
		}
	case cmpString:
		eqOnly := op == algebra.OpEq || op == algebra.OpNe
		return func(r data.Row) (truth, error) {
			x, y := &r[p], &r[q]
			if x.K != ak || y.K != bk {
				return compareValues(strs, *x, *y, o)
			}
			if eqOnly {
				return o.test(eqOutcome(x.Code() == y.Code())), nil
			}
			return o.test(strings.Compare(strs.Text(*x), strs.Text(*y))), nil
		}
	}
	return nil
}

// likeKernel compiles `col [NOT] LIKE pattern`. Patterns whose only
// wildcards are a leading or trailing '%' become a string comparison;
// every other pattern keeps algebra.MatchLike. A non-NULL value of any
// kind matches on textOf, as in the general closure.
func likeKernel(strs *data.Strings, p int, pattern string, negate bool) kernel {
	shape, lit := algebra.ClassifyLike(pattern), pattern
	switch shape {
	case algebra.LikePrefix:
		lit = pattern[:len(pattern)-1]
	case algebra.LikeSuffix:
		lit = pattern[1:]
	case algebra.LikeContains:
		lit = pattern[1 : len(pattern)-1]
	}
	return func(r data.Row) (truth, error) {
		v := &r[p]
		if v.K == data.KindNull {
			return truthUnknown, nil
		}
		s := textOf(strs, *v)
		var m bool
		switch shape {
		case algebra.LikeExact:
			m = s == lit
		case algebra.LikePrefix:
			m = strings.HasPrefix(s, lit)
		case algebra.LikeSuffix:
			m = strings.HasSuffix(s, lit)
		case algebra.LikeContains:
			m = strings.Contains(s, lit)
		default:
			m = algebra.MatchLike(s, pattern)
		}
		return truthOf(m != negate), nil
	}
}

// compileJoinPreds compiles every predicate a join applies, equi first.
func compileJoinPreds(strs *data.Strings, j *memo.JoinSpec, out schema) (conjunction, error) {
	exprs := make([]algebra.Scalar, 0, len(j.Equi)+len(j.Residual))
	for _, p := range j.Equi {
		exprs = append(exprs, p.Expr)
	}
	for _, p := range j.Residual {
		exprs = append(exprs, p.Expr)
	}
	return compileConjunction(strs, exprs, out)
}
