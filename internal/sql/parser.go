package sql

import (
	"fmt"
	"strings"
)

// Parser is a recursive-descent parser that pulls tokens from its lexer
// on demand. It holds the current token and at most one lookahead
// (NOT BETWEEN/IN/LIKE needs it).
type Parser struct {
	lex     Lexer
	tok     Token // current token
	next    Token // lookahead, valid when hasNext
	hasNext bool
	err     error // first lexer error; the token stream ends there

	// Per-parse slabs for the most common AST nodes.
	cols []ColRef
	bins []BinaryExpr
}

// Parse parses a single SELECT statement (an optional trailing semicolon
// is accepted). A lexer error anywhere in src fails the parse, as if src
// had been tokenized up front.
func Parse(src string) (*SelectStmt, error) {
	p := &Parser{lex: Lexer{src: src}}
	p.tok = p.lexNext()
	stmt, err := p.parseSelect()
	if err == nil {
		p.acceptSymbol(";")
		if !p.atEOF() {
			err = p.errorf("trailing input after statement")
		}
	}
	if p.err != nil {
		err = p.err // the lexer error is why the token stream ended
	}
	if err != nil {
		return nil, err
	}
	return stmt, nil
}

// lexNext pulls the next token from the lexer. After a lexer error it
// records the error and returns EOF from then on, so the parse stops
// and Parse reports the lexer error.
func (p *Parser) lexNext() Token {
	if p.err != nil {
		return Token{Kind: TokEOF, Pos: p.lex.pos}
	}
	t, err := p.lex.Next()
	if err != nil {
		p.err = err
		return Token{Kind: TokEOF, Pos: p.lex.pos}
	}
	return t
}

func (p *Parser) cur() Token  { return p.tok }
func (p *Parser) atEOF() bool { return p.tok.Kind == TokEOF }

// peek returns the token after the current one without consuming it.
func (p *Parser) peek() Token {
	if !p.hasNext {
		p.next, p.hasNext = p.lexNext(), true
	}
	return p.next
}

// advance consumes the current token and returns it.
func (p *Parser) advance() Token {
	t := p.tok
	if t.Kind == TokEOF {
		return t
	}
	if p.hasNext {
		p.tok, p.hasNext = p.next, false
	} else {
		p.tok = p.lexNext()
	}
	return t
}

// slabSize is how many nodes one slab of a per-parse node pool holds.
const slabSize = 32

func (p *Parser) newColRef(qualifier, name string) *ColRef {
	if len(p.cols) == cap(p.cols) {
		p.cols = make([]ColRef, 0, slabSize)
	}
	p.cols = append(p.cols, ColRef{Qualifier: qualifier, Name: name})
	return &p.cols[len(p.cols)-1]
}

func (p *Parser) newBinary(op string, l, r Expr) *BinaryExpr {
	if len(p.bins) == cap(p.bins) {
		p.bins = make([]BinaryExpr, 0, slabSize)
	}
	p.bins = append(p.bins, BinaryExpr{Op: op, L: l, R: r})
	return &p.bins[len(p.bins)-1]
}

func (p *Parser) errorf(format string, args ...interface{}) error {
	msg := fmt.Sprintf(format, args...)
	t := p.cur()
	context := t.Text
	if t.Kind == TokEOF {
		context = "end of input"
	}
	return fmt.Errorf("sql: %s (near %q at offset %d)", msg, context, t.Pos)
}

func (p *Parser) isKeyword(kw string) bool {
	t := p.cur()
	return t.Kind == TokKeyword && t.Text == kw
}

func (p *Parser) acceptKeyword(kw string) bool {
	if p.isKeyword(kw) {
		p.advance()
		return true
	}
	return false
}

func (p *Parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errorf("expected %s", kw)
	}
	return nil
}

func (p *Parser) isSymbol(s string) bool {
	t := p.cur()
	return t.Kind == TokSymbol && t.Text == s
}

func (p *Parser) acceptSymbol(s string) bool {
	if p.isSymbol(s) {
		p.advance()
		return true
	}
	return false
}

func (p *Parser) expectSymbol(s string) error {
	if !p.acceptSymbol(s) {
		return p.errorf("expected %q", s)
	}
	return nil
}

func (p *Parser) expectIdent() (string, error) {
	t := p.cur()
	if t.Kind != TokIdent {
		return "", p.errorf("expected identifier")
	}
	p.advance()
	return t.Text, nil
}

func (p *Parser) parseSelect() (*SelectStmt, error) {
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	stmt := &SelectStmt{}
	stmt.Distinct = p.acceptKeyword("DISTINCT")

	// Projection list.
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		stmt.Select = append(stmt.Select, item)
		if !p.acceptSymbol(",") {
			break
		}
	}

	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	if err := p.parseFrom(stmt); err != nil {
		return nil, err
	}

	if p.acceptKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = w
	}

	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			g, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			stmt.GroupBy = append(stmt.GroupBy, g)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}

	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			stmt.OrderBy = append(stmt.OrderBy, item)
			if !p.acceptSymbol(",") {
				break
			}
		}
	}

	if p.acceptKeyword("OPTION") {
		opt, err := p.parseOption()
		if err != nil {
			return nil, err
		}
		stmt.Option = opt
	}
	return stmt, nil
}

func (p *Parser) parseSelectItem() (SelectItem, error) {
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKeyword("AS") {
		alias, err := p.expectIdent()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = alias
	} else if p.cur().Kind == TokIdent {
		// Bare alias: SELECT expr name
		item.Alias = p.advance().Text
	}
	return item, nil
}

// parseFrom handles both comma-separated table lists and INNER JOIN ... ON
// chains; inner-join ON conditions are collected into stmt.JoinOns and
// merged with WHERE by the algebra builder.
func (p *Parser) parseFrom(stmt *SelectStmt) error {
	parseRef := func() error {
		name, err := p.expectIdent()
		if err != nil {
			return err
		}
		ref := TableRef{Table: name}
		if p.acceptKeyword("AS") {
			alias, err := p.expectIdent()
			if err != nil {
				return err
			}
			ref.Alias = alias
		} else if p.cur().Kind == TokIdent {
			ref.Alias = p.advance().Text
		}
		stmt.From = append(stmt.From, ref)
		return nil
	}
	if err := parseRef(); err != nil {
		return err
	}
	for {
		switch {
		case p.acceptSymbol(","):
			if err := parseRef(); err != nil {
				return err
			}
		case p.isKeyword("INNER") || p.isKeyword("JOIN"):
			p.acceptKeyword("INNER")
			if err := p.expectKeyword("JOIN"); err != nil {
				return err
			}
			if err := parseRef(); err != nil {
				return err
			}
			if err := p.expectKeyword("ON"); err != nil {
				return err
			}
			cond, err := p.parseExpr()
			if err != nil {
				return err
			}
			stmt.JoinOns = append(stmt.JoinOns, cond)
		default:
			return nil
		}
	}
}

func (p *Parser) parseOption() (*Option, error) {
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("USEPLAN"); err != nil {
		return nil, err
	}
	t := p.cur()
	if t.Kind != TokNumber || strings.Contains(t.Text, ".") {
		return nil, p.errorf("USEPLAN expects a non-negative integer plan number")
	}
	p.advance()
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return &Option{UsePlan: t.Text}, nil
}

// Expression grammar, lowest precedence first:
//
//	expr    := orExpr
//	orExpr  := andExpr (OR andExpr)*
//	andExpr := notExpr (AND notExpr)*
//	notExpr := NOT notExpr | predicate
//	predicate := additive [compOp additive | BETWEEN .. AND .. | IN (..) | LIKE '..']
//	additive := multiplicative (('+'|'-') multiplicative)*
//	multiplicative := unary (('*'|'/') unary)*
//	unary   := '-' unary | primary
func (p *Parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *Parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = p.newBinary("OR", l, r)
	}
	return l, nil
}

func (p *Parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = p.newBinary("AND", l, r)
	}
	return l, nil
}

func (p *Parser) parseNot() (Expr, error) {
	if p.acceptKeyword("NOT") {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "NOT", X: x}, nil
	}
	return p.parsePredicate()
}

func (p *Parser) parsePredicate() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	negate := false
	if p.isKeyword("NOT") {
		// Lookahead for NOT BETWEEN / NOT IN / NOT LIKE.
		if t := p.peek(); t.Kind != TokKeyword || (t.Text != "BETWEEN" && t.Text != "IN" && t.Text != "LIKE") {
			return l, nil
		}
		p.advance()
		negate = true
	}
	switch {
	case p.acceptKeyword("BETWEEN"):
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &BetweenExpr{X: l, Lo: lo, Hi: hi, Negate: negate}, nil
	case p.acceptKeyword("IN"):
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		var items []Expr
		for {
			item, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			items = append(items, item)
			if !p.acceptSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return &InExpr{X: l, Items: items, Negate: negate}, nil
	case p.acceptKeyword("LIKE"):
		t := p.cur()
		if t.Kind != TokString {
			return nil, p.errorf("LIKE expects a string pattern")
		}
		p.advance()
		return &LikeExpr{X: l, Pattern: t.Text, Negate: negate}, nil
	}
	if t := p.cur(); t.Kind == TokSymbol {
		switch t.Text {
		case "=", "<>", "<=", ">=", "<", ">":
			p.advance()
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return p.newBinary(t.Text, l, r), nil
		}
	}
	return l, nil
}

func (p *Parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptSymbol("+"):
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			l = p.newBinary("+", l, r)
		case p.acceptSymbol("-"):
			r, err := p.parseMultiplicative()
			if err != nil {
				return nil, err
			}
			l = p.newBinary("-", l, r)
		default:
			return l, nil
		}
	}
}

func (p *Parser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.acceptSymbol("*"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = p.newBinary("*", l, r)
		case p.acceptSymbol("/"):
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = p.newBinary("/", l, r)
		default:
			return l, nil
		}
	}
}

func (p *Parser) parseUnary() (Expr, error) {
	if p.acceptSymbol("-") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "-", X: x}, nil
	}
	return p.parsePrimary()
}

func (p *Parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.Kind {
	case TokNumber:
		p.advance()
		return &NumberLit{Text: t.Text}, nil
	case TokString:
		p.advance()
		return &StringLit{Value: t.Text}, nil
	case TokKeyword:
		switch t.Text {
		case "DATE":
			p.advance()
			s := p.cur()
			if s.Kind != TokString {
				return nil, p.errorf("DATE expects a 'YYYY-MM-DD' string literal")
			}
			p.advance()
			return &DateLit{Value: s.Text}, nil
		case "TRUE":
			p.advance()
			return &BoolLit{Value: true}, nil
		case "FALSE":
			p.advance()
			return &BoolLit{Value: false}, nil
		case "NULL":
			p.advance()
			return &NullLit{}, nil
		case "CASE":
			return p.parseCase()
		}
		return nil, p.errorf("unexpected keyword %s in expression", t.Text)
	case TokIdent:
		p.advance()
		// Function call?
		if p.isSymbol("(") {
			return p.parseFuncCall(t.Text)
		}
		// Qualified column?
		if p.acceptSymbol(".") {
			col, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			return p.newColRef(t.Text, col), nil
		}
		return p.newColRef("", t.Text), nil
	case TokSymbol:
		if t.Text == "(" {
			p.advance()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, p.errorf("unexpected token in expression")
}

func (p *Parser) parseFuncCall(name string) (Expr, error) {
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	fn := &FuncExpr{Name: strings.ToUpper(name)}
	if p.acceptSymbol("*") {
		fn.Star = true
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return fn, nil
	}
	if p.acceptSymbol(")") {
		return nil, p.errorf("%s requires an argument", fn.Name)
	}
	for {
		arg, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		fn.Args = append(fn.Args, arg)
		if !p.acceptSymbol(",") {
			break
		}
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return fn, nil
}

func (p *Parser) parseCase() (Expr, error) {
	if err := p.expectKeyword("CASE"); err != nil {
		return nil, err
	}
	ce := &CaseExpr{}
	for p.acceptKeyword("WHEN") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("THEN"); err != nil {
			return nil, err
		}
		then, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Whens = append(ce.Whens, CaseWhen{Cond: cond, Then: then})
	}
	if len(ce.Whens) == 0 {
		return nil, p.errorf("CASE requires at least one WHEN arm")
	}
	if p.acceptKeyword("ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		ce.Else = e
	}
	if err := p.expectKeyword("END"); err != nil {
		return nil, err
	}
	return ce, nil
}
