package algebra

import (
	"strconv"
	"strings"

	"repro/internal/data"
)

// Scalar is a bound scalar expression. Every node knows its result kind;
// binding resolves names, literal types, and aggregate references up
// front so neither the optimizer nor the executor deals with raw syntax.
type Scalar interface {
	scalarNode()
	// Kind is the statically inferred result type.
	Kind() data.Kind
	// Refs accumulates the base relations referenced into the set.
	Refs() RelSet
	// String renders a canonical form used for display and for
	// deduplicating semantically identical expressions during binding.
	String() string
}

// BinOp enumerates binary operators on bound expressions.
type BinOp uint8

// Binary operator codes.
const (
	OpAdd BinOp = iota
	OpSub
	OpMul
	OpDiv
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
)

var binOpNames = [...]string{"+", "-", "*", "/", "=", "<>", "<", "<=", ">", ">=", "AND", "OR"}

// String returns the SQL spelling of the operator.
func (op BinOp) String() string { return binOpNames[op] }

// Comparison reports whether the operator yields a boolean from two
// comparable operands.
func (op BinOp) Comparison() bool { return op >= OpEq && op <= OpGe }

// ColRefExpr references a column (base or derived) by its bound Column.
type ColRefExpr struct{ Col Column }

// ConstExpr is a literal value. A string literal keeps its text in Text,
// and Val carries only its kind: string codes belong to the database the
// query runs against, so the executor resolves the text when it compiles
// a plan, while binding, costing and rendering read the text.
type ConstExpr struct {
	Val  data.Value
	Text string
}

// NewStringConst returns the constant of a string literal.
func NewStringConst(text string) *ConstExpr {
	return &ConstExpr{Val: data.Value{K: data.KindString}, Text: text}
}

// BinaryExpr applies a binary operator.
type BinaryExpr struct {
	Op   BinOp
	L, R Scalar
	K    data.Kind
}

// NotExpr negates a boolean.
type NotExpr struct{ X Scalar }

// NegExpr is arithmetic negation.
type NegExpr struct{ X Scalar }

// LikeExpr matches a string against a SQL LIKE pattern (% and _).
type LikeExpr struct {
	X       Scalar
	Pattern string
	Negate  bool
}

// CaseExpr is a searched CASE expression.
type CaseExpr struct {
	Whens []CaseWhen
	Else  Scalar // may be nil (NULL)
	K     data.Kind
}

// CaseWhen is one arm of a CaseExpr.
type CaseWhen struct {
	Cond Scalar
	Then Scalar
}

// YearExpr extracts the calendar year from a date.
type YearExpr struct{ X Scalar }

func (*ColRefExpr) scalarNode() {}
func (*ConstExpr) scalarNode()  {}
func (*BinaryExpr) scalarNode() {}
func (*NotExpr) scalarNode()    {}
func (*NegExpr) scalarNode()    {}
func (*LikeExpr) scalarNode()   {}
func (*CaseExpr) scalarNode()   {}
func (*YearExpr) scalarNode()   {}

// Kind implementations.
func (e *ColRefExpr) Kind() data.Kind { return e.Col.Kind }
func (e *ConstExpr) Kind() data.Kind  { return e.Val.K }
func (e *BinaryExpr) Kind() data.Kind { return e.K }
func (e *NotExpr) Kind() data.Kind    { return data.KindBool }
func (e *NegExpr) Kind() data.Kind    { return e.X.Kind() }
func (e *LikeExpr) Kind() data.Kind   { return data.KindBool }
func (e *CaseExpr) Kind() data.Kind   { return e.K }
func (e *YearExpr) Kind() data.Kind   { return data.KindInt }

// Refs implementations.
func (e *ColRefExpr) Refs() RelSet {
	if e.Col.Rel < 0 {
		return 0
	}
	return SetOf(e.Col.Rel)
}
func (e *ConstExpr) Refs() RelSet  { return 0 }
func (e *BinaryExpr) Refs() RelSet { return e.L.Refs().Union(e.R.Refs()) }
func (e *NotExpr) Refs() RelSet    { return e.X.Refs() }
func (e *NegExpr) Refs() RelSet    { return e.X.Refs() }
func (e *LikeExpr) Refs() RelSet   { return e.X.Refs() }
func (e *CaseExpr) Refs() RelSet {
	var s RelSet
	for _, w := range e.Whens {
		s = s.Union(w.Cond.Refs()).Union(w.Then.Refs())
	}
	if e.Else != nil {
		s = s.Union(e.Else.Refs())
	}
	return s
}
func (e *YearExpr) Refs() RelSet { return e.X.Refs() }

// String implementations. Column references include their ID: names alone
// are ambiguous when a table is joined twice (TPC-H Q7/Q8 bind nation as
// n1 and n2, and both expose n_name), and these canonical strings are what
// the binder uses to match SELECT expressions against GROUP BY keys.
func (e *ColRefExpr) String() string {
	return e.Col.Name + "#" + strconv.Itoa(int(e.Col.ID))
}
func (e *ConstExpr) String() string {
	if e.Val.K == data.KindString {
		return "'" + e.Text + "'"
	}
	return e.Val.String()
}
func (e *BinaryExpr) String() string {
	return "(" + e.L.String() + " " + e.Op.String() + " " + e.R.String() + ")"
}
func (e *NotExpr) String() string { return "(NOT " + e.X.String() + ")" }
func (e *NegExpr) String() string { return "(-" + e.X.String() + ")" }
func (e *LikeExpr) String() string {
	not := ""
	if e.Negate {
		not = " NOT"
	}
	return "(" + e.X.String() + not + " LIKE '" + e.Pattern + "')"
}
func (e *CaseExpr) String() string {
	var sb strings.Builder
	sb.WriteString("CASE")
	for _, w := range e.Whens {
		sb.WriteString(" WHEN " + w.Cond.String() + " THEN " + w.Then.String())
	}
	if e.Else != nil {
		sb.WriteString(" ELSE " + e.Else.String())
	}
	sb.WriteString(" END")
	return sb.String()
}
func (e *YearExpr) String() string { return "YEAR(" + e.X.String() + ")" }

// SplitConjuncts flattens a tree of ANDs into its conjuncts.
func SplitConjuncts(s Scalar) []Scalar {
	if b, ok := s.(*BinaryExpr); ok && b.Op == OpAnd {
		return append(SplitConjuncts(b.L), SplitConjuncts(b.R)...)
	}
	return []Scalar{s}
}

// AndAll conjoins a list of predicates (nil for an empty list).
func AndAll(preds []Scalar) Scalar {
	var out Scalar
	for _, p := range preds {
		if out == nil {
			out = p
		} else {
			out = &BinaryExpr{Op: OpAnd, L: out, R: p, K: data.KindBool}
		}
	}
	return out
}

// ColumnsIn calls visit once for every column reference in s, in
// left-to-right order; a column referenced twice is visited twice.
func ColumnsIn(s Scalar, visit func(Column)) {
	switch e := s.(type) {
	case *ColRefExpr:
		visit(e.Col)
	case *BinaryExpr:
		ColumnsIn(e.L, visit)
		ColumnsIn(e.R, visit)
	case *NotExpr:
		ColumnsIn(e.X, visit)
	case *NegExpr:
		ColumnsIn(e.X, visit)
	case *LikeExpr:
		ColumnsIn(e.X, visit)
	case *CaseExpr:
		for _, w := range e.Whens {
			ColumnsIn(w.Cond, visit)
			ColumnsIn(w.Then, visit)
		}
		if e.Else != nil {
			ColumnsIn(e.Else, visit)
		}
	case *YearExpr:
		ColumnsIn(e.X, visit)
	}
}

// EquiJoinParts recognizes predicates of the exact shape
// colA = colB with the two columns coming from different base relations,
// which is what hash and merge joins key on. It returns the two columns
// with the lower relation index first.
func EquiJoinParts(s Scalar) (l, r Column, ok bool) {
	b, isBin := s.(*BinaryExpr)
	if !isBin || b.Op != OpEq {
		return Column{}, Column{}, false
	}
	lc, lok := b.L.(*ColRefExpr)
	rc, rok := b.R.(*ColRefExpr)
	if !lok || !rok || lc.Col.Rel < 0 || rc.Col.Rel < 0 || lc.Col.Rel == rc.Col.Rel {
		return Column{}, Column{}, false
	}
	if lc.Col.Rel < rc.Col.Rel {
		return lc.Col, rc.Col, true
	}
	return rc.Col, lc.Col, true
}
