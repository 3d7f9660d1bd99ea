// Package exec is the Volcano-style iterator execution engine. It can
// execute *any* plan drawn from the search space — not just the
// optimizer's choice — which is what the paper's verification methodology
// needs: "if two candidate plans fail to produce the same results, then
// either the optimizer considered an invalid plan, or the execution code
// is faulty" (Section 1).
//
// Because uniformly sampled plans are routinely orders of magnitude
// worse than the optimum, execution is resource-governed: every
// iterator in a plan shares one Governor (wall-clock deadline,
// output-row cap, intermediate-row budget, cooperative cancellation),
// and RunWithOptions converts limit trips into truncated partial
// results with structured reasons instead of unbounded runs.
package exec

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/data"
)

// schema is the ordered list of column IDs an iterator's rows carry.
type schema []algebra.ColID

// pos returns the row position of a column, or -1.
func (s schema) pos(id algebra.ColID) int {
	for i, c := range s {
		if c == id {
			return i
		}
	}
	return -1
}

// concat returns the concatenation of two schemas (join output layout).
func (s schema) concat(o schema) schema {
	out := make(schema, 0, len(s)+len(o))
	out = append(out, s...)
	return append(out, o...)
}

// evalFunc evaluates a compiled expression against a row.
type evalFunc func(data.Row) (data.Value, error)

// compile resolves every column reference in expr to a position in the
// input schema and returns an evaluator. Compilation happens once per
// plan, so evaluation performs no name or ID lookups. String constants
// get their codes in strs, which also resolves text for ordering and
// LIKE.
func compile(strs *data.Strings, expr algebra.Scalar, in schema) (evalFunc, error) {
	switch e := expr.(type) {
	case *algebra.ColRefExpr:
		p := in.pos(e.Col.ID)
		if p < 0 {
			return nil, fmt.Errorf("exec: column %s (#%d) not present in input", e.Col.Name, e.Col.ID)
		}
		return func(r data.Row) (data.Value, error) { return r[p], nil }, nil

	case *algebra.ConstExpr:
		v := e.Val
		if v.K == data.KindString {
			v = strs.Intern(e.Text)
		}
		return func(data.Row) (data.Value, error) { return v, nil }, nil

	case *algebra.BinaryExpr:
		l, err := compile(strs, e.L, in)
		if err != nil {
			return nil, err
		}
		r, err := compile(strs, e.R, in)
		if err != nil {
			return nil, err
		}
		return compileBinary(strs, e.Op, l, r, e.Kind())

	case *algebra.NotExpr:
		x, err := compile(strs, e.X, in)
		if err != nil {
			return nil, err
		}
		return func(row data.Row) (data.Value, error) {
			v, err := x(row)
			if err != nil || v.IsNull() {
				return v, err
			}
			return data.NewBool(!v.Bool()), nil
		}, nil

	case *algebra.NegExpr:
		x, err := compile(strs, e.X, in)
		if err != nil {
			return nil, err
		}
		return func(row data.Row) (data.Value, error) {
			v, err := x(row)
			if err != nil || v.IsNull() {
				return v, err
			}
			if v.K == data.KindInt {
				return data.NewInt(-v.Int()), nil
			}
			return data.NewFloat(-v.Float()), nil
		}, nil

	case *algebra.LikeExpr:
		x, err := compile(strs, e.X, in)
		if err != nil {
			return nil, err
		}
		pattern, negate := e.Pattern, e.Negate
		return func(row data.Row) (data.Value, error) {
			v, err := x(row)
			if err != nil || v.IsNull() {
				return v, err
			}
			m := algebra.MatchLike(textOf(strs, v), pattern)
			if negate {
				m = !m
			}
			return data.NewBool(m), nil
		}, nil

	case *algebra.CaseExpr:
		type arm struct{ cond, then evalFunc }
		arms := make([]arm, len(e.Whens))
		for i, w := range e.Whens {
			c, err := compile(strs, w.Cond, in)
			if err != nil {
				return nil, err
			}
			t, err := compile(strs, w.Then, in)
			if err != nil {
				return nil, err
			}
			arms[i] = arm{c, t}
		}
		var elseFn evalFunc
		if e.Else != nil {
			f, err := compile(strs, e.Else, in)
			if err != nil {
				return nil, err
			}
			elseFn = f
		}
		wantFloat := e.Kind() == data.KindFloat
		return func(row data.Row) (data.Value, error) {
			for _, a := range arms {
				c, err := a.cond(row)
				if err != nil {
					return data.Value{}, err
				}
				if !c.IsNull() && c.Bool() {
					v, err := a.then(row)
					return promote(v, wantFloat), err
				}
			}
			if elseFn != nil {
				v, err := elseFn(row)
				return promote(v, wantFloat), err
			}
			return data.Null(), nil
		}, nil

	case *algebra.YearExpr:
		x, err := compile(strs, e.X, in)
		if err != nil {
			return nil, err
		}
		return func(row data.Row) (data.Value, error) {
			v, err := x(row)
			if err != nil || v.IsNull() {
				return v, err
			}
			return data.NewInt(int64(data.Year(v.Int()))), nil
		}, nil

	default:
		return nil, fmt.Errorf("exec: cannot compile expression %T", expr)
	}
}

func promote(v data.Value, wantFloat bool) data.Value {
	if wantFloat && v.K == data.KindInt {
		return data.NewFloat(float64(v.Int()))
	}
	return v
}

// textOf is the text LIKE matches: a string's text, and "" for any other
// kind.
func textOf(strs *data.Strings, v data.Value) string {
	if v.K != data.KindString {
		return ""
	}
	return strs.Text(v)
}

func compileBinary(strs *data.Strings, op algebra.BinOp, l, r evalFunc, kind data.Kind) (evalFunc, error) {
	switch op {
	case algebra.OpAnd:
		// Kleene three-valued AND with short circuit on FALSE.
		return func(row data.Row) (data.Value, error) {
			lv, err := l(row)
			if err != nil {
				return data.Value{}, err
			}
			if !lv.IsNull() && !lv.Bool() {
				return data.NewBool(false), nil
			}
			rv, err := r(row)
			if err != nil {
				return data.Value{}, err
			}
			if !rv.IsNull() && !rv.Bool() {
				return data.NewBool(false), nil
			}
			if lv.IsNull() || rv.IsNull() {
				return data.Null(), nil
			}
			return data.NewBool(true), nil
		}, nil
	case algebra.OpOr:
		return func(row data.Row) (data.Value, error) {
			lv, err := l(row)
			if err != nil {
				return data.Value{}, err
			}
			if !lv.IsNull() && lv.Bool() {
				return data.NewBool(true), nil
			}
			rv, err := r(row)
			if err != nil {
				return data.Value{}, err
			}
			if !rv.IsNull() && rv.Bool() {
				return data.NewBool(true), nil
			}
			if lv.IsNull() || rv.IsNull() {
				return data.Null(), nil
			}
			return data.NewBool(false), nil
		}, nil
	}
	if op.Comparison() {
		return func(row data.Row) (data.Value, error) {
			lv, err := l(row)
			if err != nil {
				return data.Value{}, err
			}
			rv, err := r(row)
			if err != nil {
				return data.Value{}, err
			}
			if lv.IsNull() || rv.IsNull() {
				return data.Null(), nil // SQL: comparison with NULL is unknown
			}
			c, err := data.Compare(strs, lv, rv)
			if err != nil {
				return data.Value{}, err
			}
			var out bool
			switch op {
			case algebra.OpEq:
				out = c == 0
			case algebra.OpNe:
				out = c != 0
			case algebra.OpLt:
				out = c < 0
			case algebra.OpLe:
				out = c <= 0
			case algebra.OpGt:
				out = c > 0
			case algebra.OpGe:
				out = c >= 0
			}
			return data.NewBool(out), nil
		}, nil
	}
	// Arithmetic.
	intOp := kind == data.KindInt
	return func(row data.Row) (data.Value, error) {
		lv, err := l(row)
		if err != nil {
			return data.Value{}, err
		}
		rv, err := r(row)
		if err != nil {
			return data.Value{}, err
		}
		if lv.IsNull() || rv.IsNull() {
			return data.Null(), nil
		}
		if intOp && lv.K == data.KindInt && rv.K == data.KindInt {
			switch op {
			case algebra.OpAdd:
				return data.NewInt(lv.Int() + rv.Int()), nil
			case algebra.OpSub:
				return data.NewInt(lv.Int() - rv.Int()), nil
			case algebra.OpMul:
				return data.NewInt(lv.Int() * rv.Int()), nil
			}
		}
		a, b := lv.Float(), rv.Float()
		switch op {
		case algebra.OpAdd:
			return data.NewFloat(a + b), nil
		case algebra.OpSub:
			return data.NewFloat(a - b), nil
		case algebra.OpMul:
			return data.NewFloat(a * b), nil
		case algebra.OpDiv:
			if b == 0 {
				return data.Value{}, fmt.Errorf("exec: division by zero")
			}
			return data.NewFloat(a / b), nil
		}
		return data.Value{}, fmt.Errorf("exec: unsupported arithmetic operator %s", op)
	}, nil
}
