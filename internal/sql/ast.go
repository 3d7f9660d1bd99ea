package sql

import (
	"fmt"
	"strings"
)

// Expr is an unbound expression tree produced by the parser. Name
// resolution against the catalog happens later, in the algebra builder.
type Expr interface {
	exprNode()
	String() string
}

// ColRef is a possibly-qualified column reference: [Qualifier.]Name.
type ColRef struct {
	Qualifier string
	Name      string
}

// NumberLit is an integer or decimal literal; the original text is kept
// so the binder can decide between int64 and float64.
type NumberLit struct{ Text string }

// StringLit is a quoted string literal.
type StringLit struct{ Value string }

// DateLit is a DATE 'YYYY-MM-DD' literal.
type DateLit struct{ Value string }

// BoolLit is TRUE or FALSE.
type BoolLit struct{ Value bool }

// NullLit is the NULL literal.
type NullLit struct{}

// BinaryExpr applies an infix operator: arithmetic (+ - * /), comparison
// (= <> < <= > >=), or logical (AND, OR).
type BinaryExpr struct {
	Op   string
	L, R Expr
}

// UnaryExpr applies NOT or unary minus.
type UnaryExpr struct {
	Op string // "NOT" or "-"
	X  Expr
}

// BetweenExpr is X BETWEEN Lo AND Hi (inclusive both ends, as in SQL).
type BetweenExpr struct {
	X, Lo, Hi Expr
	Negate    bool
}

// InExpr is X IN (list) over literal/scalar items.
type InExpr struct {
	X      Expr
	Items  []Expr
	Negate bool
}

// LikeExpr is X LIKE 'pattern' with % and _ wildcards.
type LikeExpr struct {
	X       Expr
	Pattern string
	Negate  bool
}

// CaseExpr is a searched CASE: CASE WHEN cond THEN val ... [ELSE val] END.
type CaseExpr struct {
	Whens []CaseWhen
	Else  Expr
}

// CaseWhen is one WHEN/THEN arm of a CaseExpr.
type CaseWhen struct {
	Cond Expr
	Then Expr
}

// FuncExpr is a function call. Aggregates (SUM, COUNT, AVG, MIN, MAX) and
// scalar functions (YEAR) share this node; the binder tells them apart.
type FuncExpr struct {
	Name string // upper-cased
	Args []Expr
	Star bool // COUNT(*)
}

func (*ColRef) exprNode()      {}
func (*NumberLit) exprNode()   {}
func (*StringLit) exprNode()   {}
func (*DateLit) exprNode()     {}
func (*BoolLit) exprNode()     {}
func (*NullLit) exprNode()     {}
func (*BinaryExpr) exprNode()  {}
func (*UnaryExpr) exprNode()   {}
func (*BetweenExpr) exprNode() {}
func (*InExpr) exprNode()      {}
func (*LikeExpr) exprNode()    {}
func (*CaseExpr) exprNode()    {}
func (*FuncExpr) exprNode()    {}

// String renders the expression the way AppendCanonical does.
func (e *ColRef) String() string      { return exprString(e) }
func (e *NumberLit) String() string   { return exprString(e) }
func (e *StringLit) String() string   { return exprString(e) }
func (e *DateLit) String() string     { return exprString(e) }
func (e *BoolLit) String() string     { return exprString(e) }
func (e *NullLit) String() string     { return exprString(e) }
func (e *BinaryExpr) String() string  { return exprString(e) }
func (e *UnaryExpr) String() string   { return exprString(e) }
func (e *BetweenExpr) String() string { return exprString(e) }
func (e *InExpr) String() string      { return exprString(e) }
func (e *LikeExpr) String() string    { return exprString(e) }
func (e *CaseExpr) String() string    { return exprString(e) }
func (e *FuncExpr) String() string    { return exprString(e) }

func exprString(e Expr) string { return string(appendExpr(nil, e)) }

// appendExpr appends the canonical rendering of e: every operator
// application parenthesized, keywords upper-cased, literals quoted so
// the lexer reads them back.
func appendExpr(b []byte, e Expr) []byte {
	switch e := e.(type) {
	case *ColRef:
		if e.Qualifier != "" {
			b = append(b, e.Qualifier...)
			b = append(b, '.')
		}
		return append(b, e.Name...)
	case *NumberLit:
		return append(b, e.Text...)
	case *StringLit:
		return appendQuoted(b, e.Value)
	case *DateLit:
		return appendQuoted(append(b, "DATE "...), e.Value)
	case *BoolLit:
		if e.Value {
			return append(b, "TRUE"...)
		}
		return append(b, "FALSE"...)
	case *NullLit:
		return append(b, "NULL"...)
	case *BinaryExpr:
		b = appendExpr(append(b, '('), e.L)
		b = append(append(append(b, ' '), e.Op...), ' ')
		return append(appendExpr(b, e.R), ')')
	case *UnaryExpr:
		b = append(append(append(b, '('), e.Op...), ' ')
		return append(appendExpr(b, e.X), ')')
	case *BetweenExpr:
		b = appendNot(appendExpr(append(b, '('), e.X), e.Negate)
		b = appendExpr(append(b, " BETWEEN "...), e.Lo)
		return append(appendExpr(append(b, " AND "...), e.Hi), ')')
	case *InExpr:
		b = appendNot(appendExpr(append(b, '('), e.X), e.Negate)
		b = appendList(append(b, " IN ("...), e.Items)
		return append(b, "))"...)
	case *LikeExpr:
		b = appendNot(appendExpr(append(b, '('), e.X), e.Negate)
		return append(appendQuoted(append(b, " LIKE "...), e.Pattern), ')')
	case *CaseExpr:
		b = append(b, "CASE"...)
		for _, w := range e.Whens {
			b = appendExpr(append(b, " WHEN "...), w.Cond)
			b = appendExpr(append(b, " THEN "...), w.Then)
		}
		if e.Else != nil {
			b = appendExpr(append(b, " ELSE "...), e.Else)
		}
		return append(b, " END"...)
	case *FuncExpr:
		b = append(b, e.Name...)
		if e.Star {
			return append(b, "(*)"...)
		}
		return append(appendList(append(b, '('), e.Args), ')')
	}
	panic(fmt.Sprintf("sql: cannot render %T", e))
}

func appendNot(b []byte, negate bool) []byte {
	if negate {
		return append(b, " NOT"...)
	}
	return b
}

// appendList appends comma-separated renderings of es.
func appendList(b []byte, es []Expr) []byte {
	for i, x := range es {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = appendExpr(b, x)
	}
	return b
}

// appendQuoted appends a string literal, doubling embedded quotes the
// way the lexer reads them back.
func appendQuoted(b []byte, s string) []byte {
	b = append(b, '\'')
	for {
		i := strings.IndexByte(s, '\'')
		if i < 0 {
			break
		}
		b = append(b, s[:i+1]...)
		b = append(b, '\'')
		s = s[i+1:]
	}
	return append(append(b, s...), '\'')
}

// SelectItem is one projection in the SELECT list.
type SelectItem struct {
	Expr  Expr
	Alias string // "" when none
}

// TableRef names a base table with an optional alias; TPC-H Q7/Q8 join
// the nation table twice under aliases n1 and n2.
type TableRef struct {
	Table string
	Alias string
}

// Name returns the reference's binding name (alias if present).
func (t TableRef) Name() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Table
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// Option carries the paper's SQL extension: OPTION (USEPLAN n). The plan
// number may exceed int64 for large spaces, so it is kept as text and
// parsed into a big.Int by the engine.
type Option struct {
	UsePlan string
}

// SelectStmt is a parsed query.
type SelectStmt struct {
	Distinct bool
	Select   []SelectItem
	From     []TableRef
	JoinOns  []Expr // ON conditions from explicit JOIN syntax
	Where    Expr   // nil when absent
	GroupBy  []Expr
	OrderBy  []OrderItem
	Option   *Option
}

// String renders the statement canonically, OPTION clause included.
func (s *SelectStmt) String() string { return string(s.AppendCanonical(nil, true)) }

// AppendCanonical appends the statement's canonical SQL to b and returns
// the extended slice. Whitespace, keyword case and comments do not
// survive, inner-join ON conditions are folded into WHERE, and the
// OPTION (USEPLAN n) suffix is rendered only when withOption is set:
// query fingerprints hash the rendering without it, so every plan
// number of a query selects within one cached space. It is the one
// renderer of the AST; String methods wrap it.
func (s *SelectStmt) AppendCanonical(b []byte, withOption bool) []byte {
	b = append(b, "SELECT "...)
	if s.Distinct {
		b = append(b, "DISTINCT "...)
	}
	for i, it := range s.Select {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = appendExpr(b, it.Expr)
		if it.Alias != "" {
			b = append(append(b, " AS "...), it.Alias...)
		}
	}
	b = append(b, " FROM "...)
	for i, t := range s.From {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = append(b, t.Table...)
		if t.Alias != "" {
			b = append(append(b, ' '), t.Alias...)
		}
	}
	b = s.appendWhere(b)
	if len(s.GroupBy) > 0 {
		b = appendList(append(b, " GROUP BY "...), s.GroupBy)
	}
	if len(s.OrderBy) > 0 {
		b = append(b, " ORDER BY "...)
		for i, o := range s.OrderBy {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = appendExpr(b, o.Expr)
			if o.Desc {
				b = append(b, " DESC"...)
			}
		}
	}
	if withOption && s.Option != nil {
		b = append(append(append(b, " OPTION (USEPLAN "...), s.Option.UsePlan...), ')')
	}
	return b
}

// appendWhere renders WHERE and the JOIN ... ON conditions as one
// left-deep conjunction, ((where AND on1) AND on2) ..., without
// building the AND nodes.
func (s *SelectStmt) appendWhere(b []byte) []byte {
	ons := s.JoinOns
	first := s.Where
	if first == nil {
		if len(ons) == 0 {
			return b
		}
		first, ons = ons[0], ons[1:]
	}
	b = append(b, " WHERE "...)
	for range ons {
		b = append(b, '(')
	}
	b = appendExpr(b, first)
	for _, on := range ons {
		b = append(appendExpr(append(b, " AND "...), on), ')')
	}
	return b
}
