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

func (e *ColRef) String() string {
	if e.Qualifier != "" {
		return e.Qualifier + "." + e.Name
	}
	return e.Name
}
func (e *NumberLit) String() string { return e.Text }
func (e *StringLit) String() string { return quote(e.Value) }
func (e *DateLit) String() string   { return "DATE " + quote(e.Value) }
func (e *BoolLit) String() string {
	if e.Value {
		return "TRUE"
	}
	return "FALSE"
}
func (e *NullLit) String() string { return "NULL" }
func (e *BinaryExpr) String() string {
	return "(" + e.L.String() + " " + e.Op + " " + e.R.String() + ")"
}
func (e *UnaryExpr) String() string { return "(" + e.Op + " " + e.X.String() + ")" }
func (e *BetweenExpr) String() string {
	not := ""
	if e.Negate {
		not = " NOT"
	}
	return "(" + e.X.String() + not + " BETWEEN " + e.Lo.String() + " AND " + e.Hi.String() + ")"
}
func (e *InExpr) String() string {
	items := make([]string, len(e.Items))
	for i, it := range e.Items {
		items[i] = it.String()
	}
	not := ""
	if e.Negate {
		not = " NOT"
	}
	return "(" + e.X.String() + not + " IN (" + strings.Join(items, ", ") + "))"
}
func (e *LikeExpr) String() string {
	not := ""
	if e.Negate {
		not = " NOT"
	}
	return "(" + e.X.String() + not + " LIKE " + quote(e.Pattern) + ")"
}

// quote renders a string literal, doubling embedded quotes the way the
// lexer reads them back.
func quote(s string) string { return "'" + strings.ReplaceAll(s, "'", "''") + "'" }

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
func (e *FuncExpr) String() string {
	if e.Star {
		return e.Name + "(*)"
	}
	args := make([]string, len(e.Args))
	for i, a := range e.Args {
		args[i] = a.String()
	}
	return e.Name + "(" + strings.Join(args, ", ") + ")"
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

// String reconstructs a canonical SQL rendering (used in logs and tests).
func (s *SelectStmt) String() string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	if s.Distinct {
		sb.WriteString("DISTINCT ")
	}
	for i, it := range s.Select {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(it.Expr.String())
		if it.Alias != "" {
			sb.WriteString(" AS " + it.Alias)
		}
	}
	sb.WriteString(" FROM ")
	for i, t := range s.From {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(t.Table)
		if t.Alias != "" {
			sb.WriteString(" " + t.Alias)
		}
	}
	where := s.Where
	for _, on := range s.JoinOns {
		if where == nil {
			where = on
		} else {
			where = &BinaryExpr{Op: "AND", L: where, R: on}
		}
	}
	if where != nil {
		sb.WriteString(" WHERE " + where.String())
	}
	if len(s.GroupBy) > 0 {
		sb.WriteString(" GROUP BY ")
		for i, g := range s.GroupBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(g.String())
		}
	}
	if len(s.OrderBy) > 0 {
		sb.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(o.Expr.String())
			if o.Desc {
				sb.WriteString(" DESC")
			}
		}
	}
	if s.Option != nil {
		fmt.Fprintf(&sb, " OPTION (USEPLAN %s)", s.Option.UsePlan)
	}
	return sb.String()
}
