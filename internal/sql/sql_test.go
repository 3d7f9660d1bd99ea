package sql

import (
	"strings"
	"testing"
)

// lexAll drives NewLexer(src).Next to EOF, returning every token
// including the trailing EOF token.
func lexAll(src string) ([]Token, error) {
	l := NewLexer(src)
	var out []Token
	for {
		t, err := l.Next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.Kind == TokEOF {
			return out, nil
		}
	}
}

func TestTokenizeBasics(t *testing.T) {
	toks, err := lexAll("SELECT a, b FROM t WHERE a >= 1.5 AND b <> 'x''y' -- comment\n OPTION (USEPLAN 8)")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, tok := range toks {
		switch tok.Kind {
		case TokKeyword:
			kinds = append(kinds, "K:"+tok.Text)
		case TokIdent:
			kinds = append(kinds, "I:"+tok.Text)
		case TokNumber:
			kinds = append(kinds, "N:"+tok.Text)
		case TokString:
			kinds = append(kinds, "S:"+tok.Text)
		case TokSymbol:
			kinds = append(kinds, tok.Text)
		case TokEOF:
			kinds = append(kinds, "EOF")
		}
	}
	want := []string{
		"K:SELECT", "I:a", ",", "I:b", "K:FROM", "I:t", "K:WHERE",
		"I:a", ">=", "N:1.5", "K:AND", "I:b", "<>", "S:x'y",
		"K:OPTION", "(", "K:USEPLAN", "N:8", ")", "EOF",
	}
	if strings.Join(kinds, " ") != strings.Join(want, " ") {
		t.Errorf("tokens:\n got %v\nwant %v", kinds, want)
	}
}

func TestTokenizeErrors(t *testing.T) {
	if _, err := lexAll("SELECT 'unterminated"); err == nil {
		t.Error("unterminated string accepted")
	}
	if _, err := lexAll("SELECT @"); err == nil {
		t.Error("stray byte accepted")
	}
}

func TestNotEqualsAliases(t *testing.T) {
	toks, err := lexAll("a != b")
	if err != nil {
		t.Fatal(err)
	}
	if toks[1].Text != "<>" {
		t.Errorf("!= should normalize to <>, got %q", toks[1].Text)
	}
}

func TestParseSimpleSelect(t *testing.T) {
	stmt, err := Parse("SELECT a, b AS bee FROM t1, t2 x WHERE a = 1 ORDER BY a DESC, bee")
	if err != nil {
		t.Fatal(err)
	}
	if len(stmt.Select) != 2 || stmt.Select[1].Alias != "bee" {
		t.Errorf("select list: %+v", stmt.Select)
	}
	if len(stmt.From) != 2 || stmt.From[1].Alias != "x" || stmt.From[1].Name() != "x" {
		t.Errorf("from list: %+v", stmt.From)
	}
	if stmt.From[0].Name() != "t1" {
		t.Errorf("unaliased Name = %q", stmt.From[0].Name())
	}
	if stmt.Where == nil {
		t.Error("missing WHERE")
	}
	if len(stmt.OrderBy) != 2 || !stmt.OrderBy[0].Desc || stmt.OrderBy[1].Desc {
		t.Errorf("order by: %+v", stmt.OrderBy)
	}
}

func TestParseInnerJoin(t *testing.T) {
	stmt, err := Parse("SELECT a FROM t1 INNER JOIN t2 ON t1.k = t2.k JOIN t3 ON t2.j = t3.j")
	if err != nil {
		t.Fatal(err)
	}
	if len(stmt.From) != 3 {
		t.Errorf("from: %+v", stmt.From)
	}
	if len(stmt.JoinOns) != 2 {
		t.Errorf("join conditions: %d", len(stmt.JoinOns))
	}
}

func TestParseGroupByAndAggregates(t *testing.T) {
	stmt, err := Parse(`SELECT n, SUM(x * (1 - y)) AS revenue, COUNT(*) AS c
		FROM t GROUP BY n ORDER BY revenue DESC`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmt.GroupBy) != 1 {
		t.Errorf("group by: %+v", stmt.GroupBy)
	}
	fn, ok := stmt.Select[2].Expr.(*FuncExpr)
	if !ok || !fn.Star || fn.Name != "COUNT" {
		t.Errorf("COUNT(*): %+v", stmt.Select[2].Expr)
	}
}

func TestParseOption(t *testing.T) {
	stmt, err := Parse("SELECT a FROM t OPTION (USEPLAN 123456789012345678901234567890)")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.Option == nil || stmt.Option.UsePlan != "123456789012345678901234567890" {
		t.Errorf("option: %+v", stmt.Option)
	}
}

func TestParseOptionErrors(t *testing.T) {
	for _, q := range []string{
		"SELECT a FROM t OPTION (USEPLAN)",
		"SELECT a FROM t OPTION (USEPLAN 1.5)",
		"SELECT a FROM t OPTION (USEPLAN 'x')",
		"SELECT a FROM t OPTION USEPLAN 1",
	} {
		if _, err := Parse(q); err == nil {
			t.Errorf("accepted %q", q)
		}
	}
}

func TestParsePrecedence(t *testing.T) {
	stmt, err := Parse("SELECT a FROM t WHERE a + b * c = d AND e OR f")
	if err != nil {
		t.Fatal(err)
	}
	// OR binds loosest: ((... AND e) OR f)
	or, ok := stmt.Where.(*BinaryExpr)
	if !ok || or.Op != "OR" {
		t.Fatalf("top = %v", stmt.Where)
	}
	and, ok := or.L.(*BinaryExpr)
	if !ok || and.Op != "AND" {
		t.Fatalf("left of OR = %v", or.L)
	}
	eq, ok := and.L.(*BinaryExpr)
	if !ok || eq.Op != "=" {
		t.Fatalf("left of AND = %v", and.L)
	}
	add, ok := eq.L.(*BinaryExpr)
	if !ok || add.Op != "+" {
		t.Fatalf("lhs of = should be +: %v", eq.L)
	}
	if mul, ok := add.R.(*BinaryExpr); !ok || mul.Op != "*" {
		t.Fatalf("* should bind tighter than +: %v", add.R)
	}
}

func TestParseBetweenInLikeCase(t *testing.T) {
	stmt, err := Parse(`SELECT CASE WHEN a BETWEEN 1 AND 2 THEN 'lo' ELSE 'hi' END
		FROM t WHERE b IN (1, 2, 3) AND c LIKE '%green%' AND d NOT LIKE 'x%'
		AND e NOT BETWEEN 5 AND 6 AND f NOT IN (9)`)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := stmt.Select[0].Expr.(*CaseExpr); !ok {
		t.Errorf("CASE not parsed: %T", stmt.Select[0].Expr)
	}
	s := stmt.Where.String()
	for _, want := range []string{"IN (1, 2, 3)", "LIKE '%green%'", "NOT LIKE 'x%'", "NOT BETWEEN 5 AND 6", "NOT IN (9)"} {
		if !strings.Contains(s, want) {
			t.Errorf("WHERE rendering missing %q: %s", want, s)
		}
	}
}

func TestParseDateLiteralAndFunctions(t *testing.T) {
	stmt, err := Parse("SELECT YEAR(d) FROM t WHERE d >= DATE '1994-01-01'")
	if err != nil {
		t.Fatal(err)
	}
	fn, ok := stmt.Select[0].Expr.(*FuncExpr)
	if !ok || fn.Name != "YEAR" || len(fn.Args) != 1 {
		t.Errorf("YEAR(): %+v", stmt.Select[0].Expr)
	}
	cmp := stmt.Where.(*BinaryExpr)
	if _, ok := cmp.R.(*DateLit); !ok {
		t.Errorf("DATE literal: %T", cmp.R)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT FROM t",
		"SELECT a",
		"SELECT a FROM",
		"SELECT a FROM t WHERE",
		"SELECT a FROM t GROUP a",
		"SELECT a FROM t ORDER a",
		"SELECT a FROM t extra things",
		"SELECT a FROM t WHERE (a = 1",
		"SELECT CASE END FROM t",
		"SELECT a FROM t1 JOIN t2",
		"SELECT COUNT() FROM t",
		"INSERT INTO t VALUES (1)",
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("accepted %q", q)
		}
	}
}

func TestStmtStringRoundTrips(t *testing.T) {
	src := "SELECT a, SUM(b) AS s FROM t1, t2 x WHERE (a = 1 AND b < 2) GROUP BY a ORDER BY s DESC OPTION (USEPLAN 8)"
	stmt, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	rendered := stmt.String()
	// The rendering must itself parse to the same rendering (fixpoint).
	stmt2, err := Parse(rendered)
	if err != nil {
		t.Fatalf("reparse of %q: %v", rendered, err)
	}
	if stmt2.String() != rendered {
		t.Errorf("String not a fixpoint:\n1: %s\n2: %s", rendered, stmt2.String())
	}
}

func TestUnaryMinusAndNot(t *testing.T) {
	stmt, err := Parse("SELECT -a FROM t WHERE NOT a = 1")
	if err != nil {
		t.Fatal(err)
	}
	if u, ok := stmt.Select[0].Expr.(*UnaryExpr); !ok || u.Op != "-" {
		t.Errorf("unary minus: %+v", stmt.Select[0].Expr)
	}
	if u, ok := stmt.Where.(*UnaryExpr); !ok || u.Op != "NOT" {
		t.Errorf("NOT: %+v", stmt.Where)
	}
}

func TestBareAlias(t *testing.T) {
	stmt, err := Parse("SELECT a total FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.Select[0].Alias != "total" {
		t.Errorf("bare alias = %q", stmt.Select[0].Alias)
	}
}
