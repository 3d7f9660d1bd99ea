package algebra

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/catalog"
	"repro/internal/data"
	"repro/internal/sql"
)

// Build binds a parsed SELECT statement against the catalog and
// normalizes it into a Query: FROM entries become base relations with
// fresh column IDs, the WHERE conjunction is split into per-relation
// filters and join predicates (with equi-join keys recognized), grouping
// keys and aggregates are extracted, and the SELECT list and ORDER BY are
// rewritten over grouping/aggregate outputs.
func Build(stmt *sql.SelectStmt, cat *catalog.Catalog) (*Query, error) {
	if stmt.Distinct {
		return nil, fmt.Errorf("algebra: SELECT DISTINCT is not supported")
	}
	if len(stmt.From) == 0 {
		return nil, fmt.Errorf("algebra: query has no FROM clause")
	}
	if len(stmt.From) > 64 {
		return nil, fmt.Errorf("algebra: more than 64 relations in FROM")
	}
	b := &binder{
		q:         NewQuery(),
		relByName: make(map[string]*BaseRel),
	}

	// FROM list: allocate base relations and their columns.
	for i, ref := range stmt.From {
		tbl, ok := cat.Table(ref.Table)
		if !ok {
			return nil, fmt.Errorf("algebra: unknown table %q", ref.Table)
		}
		name := ref.Name()
		if _, dup := b.relByName[name]; dup {
			return nil, fmt.Errorf("algebra: duplicate relation name %q in FROM", name)
		}
		rel := &BaseRel{Idx: i, Name: name, Table: tbl}
		for ci, col := range tbl.Columns {
			rel.Cols = append(rel.Cols, b.q.NewBaseColumn(col.Name, col.Kind, i, ci))
		}
		b.q.Rels = append(b.q.Rels, rel)
		b.q.AllRels = b.q.AllRels.Add(i)
		b.relByName[name] = rel
	}

	// WHERE plus explicit JOIN ... ON conditions form one conjunction.
	var conjuncts []sql.Expr
	if stmt.Where != nil {
		conjuncts = splitSQLConjuncts(stmt.Where)
	}
	for _, on := range stmt.JoinOns {
		conjuncts = append(conjuncts, splitSQLConjuncts(on)...)
	}
	for _, c := range conjuncts {
		s, err := b.bindExpr(c)
		if err != nil {
			return nil, err
		}
		if s.Kind() != data.KindBool {
			return nil, fmt.Errorf("algebra: WHERE conjunct %s is not boolean", s)
		}
		refs := s.Refs()
		switch refs.Count() {
		case 0:
			// Constant predicate: attach to the first relation so it is
			// still evaluated (rare, mostly from tests).
			b.q.Rels[0].Filters = append(b.q.Rels[0].Filters, s)
		case 1:
			rel := refs.Indices()[0]
			b.q.Rels[rel].Filters = append(b.q.Rels[rel].Filters, s)
		default:
			pi := &PredInfo{Expr: s, Refs: refs}
			if l, r, ok := EquiJoinParts(s); ok {
				pi.IsEqui = true
				pi.LCol, pi.RCol = l, r
			}
			b.q.Preds = append(b.q.Preds, pi)
		}
	}

	// GROUP BY keys.
	for _, g := range stmt.GroupBy {
		s, err := b.bindExpr(g)
		if err != nil {
			return nil, err
		}
		ge := GroupExpr{Expr: s}
		if cr, ok := s.(*ColRefExpr); ok {
			ge.Out = cr.Col // pass-through key keeps its column ID
		} else {
			ge.Out = b.q.NewColumn(s.String(), s.Kind())
		}
		b.q.GroupBy = append(b.q.GroupBy, ge)
	}

	// SELECT list: aggregates extracted, grouped expressions substituted.
	hasAggFunc := false
	for _, item := range stmt.Select {
		if containsAgg(item.Expr) {
			hasAggFunc = true
		}
	}
	grouped := hasAggFunc || len(stmt.GroupBy) > 0
	for _, item := range stmt.Select {
		var s Scalar
		var err error
		if grouped {
			s, err = b.bindGrouped(item.Expr)
		} else {
			s, err = b.bindExpr(item.Expr)
		}
		if err != nil {
			return nil, err
		}
		name := item.Alias
		if name == "" {
			if cr, ok := s.(*ColRefExpr); ok {
				name = cr.Col.Name
			} else {
				name = s.String()
			}
		}
		proj := Projection{Expr: s, Name: name}
		if cr, ok := s.(*ColRefExpr); ok {
			proj.Out = cr.Col
		} else {
			proj.Out = b.q.NewColumn(name, s.Kind())
		}
		b.q.Projections = append(b.q.Projections, proj)
	}

	// ORDER BY: resolve against aliases, projections, then plain columns.
	for _, item := range stmt.OrderBy {
		col, err := b.resolveOrderKey(item.Expr, stmt, grouped)
		if err != nil {
			return nil, err
		}
		b.q.OrderBy = append(b.q.OrderBy, OrderCol{Col: col.ID, Desc: item.Desc})
	}
	return b.q, nil
}

type binder struct {
	q         *Query
	relByName map[string]*BaseRel
	aggByKey  map[string]*AggExpr
}

func splitSQLConjuncts(e sql.Expr) []sql.Expr {
	if b, ok := e.(*sql.BinaryExpr); ok && b.Op == "AND" {
		return append(splitSQLConjuncts(b.L), splitSQLConjuncts(b.R)...)
	}
	return []sql.Expr{e}
}

var aggFuncNames = map[string]AggFunc{
	"SUM": AggSum, "COUNT": AggCount, "AVG": AggAvg, "MIN": AggMin, "MAX": AggMax,
}

func containsAgg(e sql.Expr) bool {
	switch t := e.(type) {
	case *sql.FuncExpr:
		if _, ok := aggFuncNames[t.Name]; ok {
			return true
		}
		for _, a := range t.Args {
			if containsAgg(a) {
				return true
			}
		}
	case *sql.BinaryExpr:
		return containsAgg(t.L) || containsAgg(t.R)
	case *sql.UnaryExpr:
		return containsAgg(t.X)
	case *sql.BetweenExpr:
		return containsAgg(t.X) || containsAgg(t.Lo) || containsAgg(t.Hi)
	case *sql.InExpr:
		if containsAgg(t.X) {
			return true
		}
		for _, it := range t.Items {
			if containsAgg(it) {
				return true
			}
		}
	case *sql.LikeExpr:
		return containsAgg(t.X)
	case *sql.CaseExpr:
		for _, w := range t.Whens {
			if containsAgg(w.Cond) || containsAgg(w.Then) {
				return true
			}
		}
		if t.Else != nil {
			return containsAgg(t.Else)
		}
	}
	return false
}

// bindExpr binds an expression in which aggregate functions are illegal
// (WHERE clauses, GROUP BY keys, aggregate arguments).
func (b *binder) bindExpr(e sql.Expr) (Scalar, error) {
	switch t := e.(type) {
	case *sql.ColRef:
		return b.bindColRef(t)
	case *sql.NumberLit:
		if strings.Contains(t.Text, ".") {
			f, err := strconv.ParseFloat(t.Text, 64)
			if err != nil {
				return nil, fmt.Errorf("algebra: bad numeric literal %q", t.Text)
			}
			return &ConstExpr{Val: data.NewFloat(f)}, nil
		}
		i, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("algebra: bad integer literal %q", t.Text)
		}
		return &ConstExpr{Val: data.NewInt(i)}, nil
	case *sql.StringLit:
		return NewStringConst(t.Value), nil
	case *sql.DateLit:
		d, err := data.ParseDate(t.Value)
		if err != nil {
			return nil, err
		}
		return &ConstExpr{Val: data.NewDate(d)}, nil
	case *sql.BoolLit:
		return &ConstExpr{Val: data.NewBool(t.Value)}, nil
	case *sql.NullLit:
		return &ConstExpr{Val: data.Null()}, nil
	case *sql.BinaryExpr:
		return b.bindBinary(t)
	case *sql.UnaryExpr:
		x, err := b.bindExpr(t.X)
		if err != nil {
			return nil, err
		}
		if t.Op == "NOT" {
			if x.Kind() != data.KindBool {
				return nil, fmt.Errorf("algebra: NOT applied to %s", x.Kind())
			}
			return &NotExpr{X: x}, nil
		}
		if !x.Kind().Numeric() {
			return nil, fmt.Errorf("algebra: unary minus applied to %s", x.Kind())
		}
		return &NegExpr{X: x}, nil
	case *sql.BetweenExpr:
		// Lower to (x >= lo AND x <= hi); expressions are pure so the
		// double evaluation of x is harmless.
		x, err := b.bindExpr(t.X)
		if err != nil {
			return nil, err
		}
		lo, err := b.bindExpr(t.Lo)
		if err != nil {
			return nil, err
		}
		hi, err := b.bindExpr(t.Hi)
		if err != nil {
			return nil, err
		}
		if err := checkComparable(x, lo); err != nil {
			return nil, err
		}
		if err := checkComparable(x, hi); err != nil {
			return nil, err
		}
		var out Scalar = &BinaryExpr{Op: OpAnd, K: data.KindBool,
			L: &BinaryExpr{Op: OpGe, L: x, R: lo, K: data.KindBool},
			R: &BinaryExpr{Op: OpLe, L: x, R: hi, K: data.KindBool},
		}
		if t.Negate {
			out = &NotExpr{X: out}
		}
		return out, nil
	case *sql.InExpr:
		// Lower to a disjunction of equalities.
		x, err := b.bindExpr(t.X)
		if err != nil {
			return nil, err
		}
		var out Scalar
		for _, item := range t.Items {
			it, err := b.bindExpr(item)
			if err != nil {
				return nil, err
			}
			if err := checkComparable(x, it); err != nil {
				return nil, err
			}
			eq := &BinaryExpr{Op: OpEq, L: x, R: it, K: data.KindBool}
			if out == nil {
				out = eq
			} else {
				out = &BinaryExpr{Op: OpOr, L: out, R: eq, K: data.KindBool}
			}
		}
		if out == nil {
			out = &ConstExpr{Val: data.NewBool(false)}
		}
		if t.Negate {
			out = &NotExpr{X: out}
		}
		return out, nil
	case *sql.LikeExpr:
		x, err := b.bindExpr(t.X)
		if err != nil {
			return nil, err
		}
		if x.Kind() != data.KindString {
			return nil, fmt.Errorf("algebra: LIKE applied to %s", x.Kind())
		}
		return &LikeExpr{X: x, Pattern: t.Pattern, Negate: t.Negate}, nil
	case *sql.CaseExpr:
		return b.bindCase(t, b.bindExpr)
	case *sql.FuncExpr:
		if _, isAgg := aggFuncNames[t.Name]; isAgg {
			return nil, fmt.Errorf("algebra: aggregate %s not allowed here", t.Name)
		}
		return b.bindScalarFunc(t, b.bindExpr)
	default:
		return nil, fmt.Errorf("algebra: unsupported expression %T", e)
	}
}

func (b *binder) bindBinary(t *sql.BinaryExpr) (Scalar, error) {
	l, err := b.bindExpr(t.L)
	if err != nil {
		return nil, err
	}
	r, err := b.bindExpr(t.R)
	if err != nil {
		return nil, err
	}
	return combineBinary(t.Op, l, r)
}

func combineBinary(op string, l, r Scalar) (Scalar, error) {
	switch op {
	case "AND", "OR":
		if l.Kind() != data.KindBool || r.Kind() != data.KindBool {
			return nil, fmt.Errorf("algebra: %s requires boolean operands", op)
		}
		code := OpAnd
		if op == "OR" {
			code = OpOr
		}
		return &BinaryExpr{Op: code, L: l, R: r, K: data.KindBool}, nil
	case "=", "<>", "<", "<=", ">", ">=":
		if err := checkComparable(l, r); err != nil {
			return nil, err
		}
		var code BinOp
		switch op {
		case "=":
			code = OpEq
		case "<>":
			code = OpNe
		case "<":
			code = OpLt
		case "<=":
			code = OpLe
		case ">":
			code = OpGt
		case ">=":
			code = OpGe
		}
		return &BinaryExpr{Op: code, L: l, R: r, K: data.KindBool}, nil
	case "+", "-", "*", "/":
		if !l.Kind().Numeric() || !r.Kind().Numeric() {
			return nil, fmt.Errorf("algebra: arithmetic %s over %s and %s", op, l.Kind(), r.Kind())
		}
		var code BinOp
		switch op {
		case "+":
			code = OpAdd
		case "-":
			code = OpSub
		case "*":
			code = OpMul
		case "/":
			code = OpDiv
		}
		kind := data.KindInt
		if code == OpDiv || l.Kind() == data.KindFloat || r.Kind() == data.KindFloat {
			kind = data.KindFloat
		}
		return &BinaryExpr{Op: code, L: l, R: r, K: kind}, nil
	default:
		return nil, fmt.Errorf("algebra: unknown operator %q", op)
	}
}

func checkComparable(l, r Scalar) error {
	lk, rk := l.Kind(), r.Kind()
	if lk.Numeric() && rk.Numeric() {
		return nil
	}
	if lk == rk {
		return nil
	}
	if lk == data.KindNull || rk == data.KindNull {
		return nil
	}
	return fmt.Errorf("algebra: cannot compare %s with %s", lk, rk)
}

func (b *binder) bindCase(t *sql.CaseExpr, bindSub func(sql.Expr) (Scalar, error)) (Scalar, error) {
	ce := &CaseExpr{}
	for _, w := range t.Whens {
		cond, err := bindSub(w.Cond)
		if err != nil {
			return nil, err
		}
		if cond.Kind() != data.KindBool {
			return nil, fmt.Errorf("algebra: CASE WHEN condition is %s, want boolean", cond.Kind())
		}
		then, err := bindSub(w.Then)
		if err != nil {
			return nil, err
		}
		ce.Whens = append(ce.Whens, CaseWhen{Cond: cond, Then: then})
	}
	if t.Else != nil {
		e, err := bindSub(t.Else)
		if err != nil {
			return nil, err
		}
		ce.Else = e
	}
	ce.K = ce.Whens[0].Then.Kind()
	if ce.K == data.KindInt {
		// Promote to float if any arm is float so arithmetic above the
		// CASE is stable regardless of which arm fires.
		for _, w := range ce.Whens {
			if w.Then.Kind() == data.KindFloat {
				ce.K = data.KindFloat
			}
		}
		if ce.Else != nil && ce.Else.Kind() == data.KindFloat {
			ce.K = data.KindFloat
		}
	}
	return ce, nil
}

func (b *binder) bindScalarFunc(t *sql.FuncExpr, bindSub func(sql.Expr) (Scalar, error)) (Scalar, error) {
	switch t.Name {
	case "YEAR":
		if len(t.Args) != 1 || t.Star {
			return nil, fmt.Errorf("algebra: YEAR takes exactly one argument")
		}
		x, err := bindSub(t.Args[0])
		if err != nil {
			return nil, err
		}
		if x.Kind() != data.KindDate {
			return nil, fmt.Errorf("algebra: YEAR applied to %s", x.Kind())
		}
		return &YearExpr{X: x}, nil
	default:
		return nil, fmt.Errorf("algebra: unknown function %s", t.Name)
	}
}

func (b *binder) bindColRef(t *sql.ColRef) (Scalar, error) {
	if t.Qualifier != "" {
		rel, ok := b.relByName[t.Qualifier]
		if !ok {
			return nil, fmt.Errorf("algebra: unknown relation %q", t.Qualifier)
		}
		ci := rel.Table.ColIndex(t.Name)
		if ci < 0 {
			return nil, fmt.Errorf("algebra: relation %q has no column %q", t.Qualifier, t.Name)
		}
		return &ColRefExpr{Col: rel.Cols[ci]}, nil
	}
	var found *ColRefExpr
	for _, rel := range b.q.Rels {
		ci := rel.Table.ColIndex(t.Name)
		if ci < 0 {
			continue
		}
		if found != nil {
			return nil, fmt.Errorf("algebra: column %q is ambiguous", t.Name)
		}
		found = &ColRefExpr{Col: rel.Cols[ci]}
	}
	if found == nil {
		return nil, fmt.Errorf("algebra: unknown column %q", t.Name)
	}
	return found, nil
}

// bindGrouped binds an expression appearing above the aggregation:
// aggregate calls become references to aggregate outputs, subexpressions
// matching a GROUP BY key become references to the key's output column,
// and any remaining base-column reference is an error.
func (b *binder) bindGrouped(e sql.Expr) (Scalar, error) {
	if fn, ok := e.(*sql.FuncExpr); ok {
		if agg, isAgg := aggFuncNames[fn.Name]; isAgg {
			return b.bindAgg(agg, fn)
		}
	}
	// Whole-expression match against a grouping key.
	if s, err := b.bindExpr(e); err == nil {
		key := s.String()
		for i := range b.q.GroupBy {
			if b.q.GroupBy[i].Expr.String() == key {
				return &ColRefExpr{Col: b.q.GroupBy[i].Out}, nil
			}
		}
		if cr, ok := s.(*ColRefExpr); ok {
			return nil, fmt.Errorf("algebra: column %s must appear in GROUP BY or inside an aggregate", cr.Col.Name)
		}
		// Constant or other group-free expression is fine.
		if s.Refs().Empty() {
			return s, nil
		}
	}
	// Recurse structurally, rebinding children in grouped context.
	switch t := e.(type) {
	case *sql.BinaryExpr:
		l, err := b.bindGrouped(t.L)
		if err != nil {
			return nil, err
		}
		r, err := b.bindGrouped(t.R)
		if err != nil {
			return nil, err
		}
		return combineBinary(t.Op, l, r)
	case *sql.UnaryExpr:
		x, err := b.bindGrouped(t.X)
		if err != nil {
			return nil, err
		}
		if t.Op == "NOT" {
			return &NotExpr{X: x}, nil
		}
		return &NegExpr{X: x}, nil
	case *sql.CaseExpr:
		return b.bindCase(t, b.bindGrouped)
	case *sql.FuncExpr:
		return b.bindScalarFunc(t, b.bindGrouped)
	default:
		return nil, fmt.Errorf("algebra: expression %s is invalid above GROUP BY", e.String())
	}
}

func (b *binder) bindAgg(fn AggFunc, t *sql.FuncExpr) (Scalar, error) {
	var arg Scalar
	if t.Star {
		if fn != AggCount {
			return nil, fmt.Errorf("algebra: %s(*) is not valid", fn)
		}
	} else {
		if len(t.Args) != 1 {
			return nil, fmt.Errorf("algebra: %s takes exactly one argument", fn)
		}
		a, err := b.bindExpr(t.Args[0]) // aggregates cannot nest
		if err != nil {
			return nil, err
		}
		arg = a
	}
	var kind data.Kind
	switch fn {
	case AggCount:
		kind = data.KindInt
	case AggAvg:
		kind = data.KindFloat
	default:
		if arg == nil || !arg.Kind().Numeric() && fn == AggSum {
			return nil, fmt.Errorf("algebra: SUM requires a numeric argument")
		}
		kind = arg.Kind()
	}
	key := fn.String() + "("
	if arg != nil {
		key += arg.String()
	} else {
		key += "*"
	}
	key += ")"
	if b.aggByKey == nil {
		b.aggByKey = make(map[string]*AggExpr)
	}
	if existing, ok := b.aggByKey[key]; ok {
		return &ColRefExpr{Col: existing.Out}, nil
	}
	agg := &AggExpr{Fn: fn, Arg: arg, Out: b.q.NewColumn(key, kind)}
	b.aggByKey[key] = agg
	b.q.Aggs = append(b.q.Aggs, agg)
	return &ColRefExpr{Col: agg.Out}, nil
}

func (b *binder) resolveOrderKey(e sql.Expr, stmt *sql.SelectStmt, grouped bool) (Column, error) {
	// A bare identifier may be a projection alias.
	if cr, ok := e.(*sql.ColRef); ok && cr.Qualifier == "" {
		for i, item := range stmt.Select {
			if item.Alias == cr.Name {
				return b.q.Projections[i].Out, nil
			}
		}
	}
	var bound Scalar
	var err error
	if grouped {
		bound, err = b.bindGrouped(e)
	} else {
		bound, err = b.bindExpr(e)
	}
	if err != nil {
		return Column{}, fmt.Errorf("algebra: cannot resolve ORDER BY key %s: %w", e.String(), err)
	}
	key := bound.String()
	for i := range b.q.Projections {
		if b.q.Projections[i].Expr.String() == key {
			return b.q.Projections[i].Out, nil
		}
	}
	if cr, ok := bound.(*ColRefExpr); ok {
		return cr.Col, nil
	}
	return Column{}, fmt.Errorf("algebra: ORDER BY expression %s must appear in the select list", e.String())
}
