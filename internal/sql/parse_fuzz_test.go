package sql

import "testing"

// parseSeeds is the FuzzParse seed corpus; TestCanonicalGolden pins the
// rendering of every seed Parse accepts.
var parseSeeds = []string{
	// Well-formed, covering every clause and expression form.
	"SELECT a, SUM(b) AS s FROM t1, t2 x WHERE (a = 1 AND b < 2) GROUP BY a ORDER BY s DESC OPTION (USEPLAN 8)",
	"SELECT DISTINCT t.a FROM t INNER JOIN u ON t.a = u.b JOIN v ON u.c = v.c",
	"SELECT CASE WHEN a > 1 THEN 'x' ELSE 'y' END, COUNT(*) FROM t WHERE a BETWEEN 1 AND 2 OR b NOT IN (1, 2.5, -3)",
	"SELECT a FROM t WHERE s LIKE '%x_y%' AND d >= DATE '1995-03-15' AND NOT c IS NULL",
	"SELECT -a * (b + 1) / 2 - c FROM t WHERE a <> 1 AND b != 2 AND c <= 3 AND e >= 4 AND f > 5",
	"SELECT a FROM t WHERE b = 'x''y' AND c NOT LIKE 'it''s%'",
	"SELECT EXTRACT(YEAR FROM d), SUBSTRING(s, 1, 2) FROM t WHERE TRUE AND NOT FALSE AND a = NULL",
	"SELECT a FROM t WHERE s LIKE '%x_y%' AND d >= DATE '1995-03-15' AND NOT c = NULL",
	"SELECT YEAR(d), MIN(a), max(b), AVG(c + 1) FROM t WHERE TRUE AND NOT FALSE AND a = NULL",
	"SELECT CASE WHEN a = 1 THEN 2 WHEN a = 2 THEN 3 END AS c FROM t AS x, u y WHERE a NOT BETWEEN 1 AND 2 AND a IN ('a', 'b''c') GROUP BY a, b ORDER BY a ASC, b DESC;",
	// Case and whitespace variants.
	"select a from t where b = 1 order by a asc",
	"SeLeCt\ta\nFrOm\r\nt  WhErE  b=1 -- trailing comment\n",
	"SELECT a FROM t OPTION(USEPLAN 123456789012345678901234567890)",
	// Malformed clauses and missing keywords.
	"SELECT",
	"SELECT a FROM t WHERE (a = 1",
	"SELECT a FROM t GROUP a",
	"SELECT a FROM t ORDER a",
	"SELECT a FROM t1 JOIN t2",
	"SELECT a FROM t WHERE a BETWEEN 1",
	"SELECT a FROM t WHERE a IN ()",
	"SELECT CASE WHEN a THEN b FROM t",
	"SELECT a FROM t OPTION (USEPLAN)",
	"SELECT a FROM t WHERE s LIKE 'unterminated",
	"SELECT a,, b FROM t",
	"SELECT COUNT() FROM t",
	"INSERT INTO t VALUES (1)",
}

// lexErrorSeeds hold a lexer error after a complete statement, or where
// only the lookahead reaches it: the parser lexes on demand, and must
// still reach the bad byte and reject the input.
var lexErrorSeeds = []string{
	"SELECT a FROM t; @",
	"SELECT a FROM t '",
	"SELECT a FROM t WHERE b = 1 ORDER BY a #",
	"SELECT a FROM t WHERE b NOT !",
	"SELECT a FROM t WHERE b NOT 'open",
}

func TestParseRejectsLexerErrors(t *testing.T) {
	for _, src := range lexErrorSeeds {
		if _, err := Parse(src); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}

// FuzzParse checks three properties of the parser on arbitrary input:
// Parse never panics; it accepts only input the lexer reads to EOF
// without error, as it did when the whole input was tokenized before
// parsing; and a statement it accepts renders (String) to SQL that
// parses again to the same rendering. The last property is what keeps
// query fingerprints, which hash the rendered SQL, stable.
func FuzzParse(f *testing.F) {
	for _, s := range append(parseSeeds, lexErrorSeeds...) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		stmt, err := Parse(src)
		if err != nil {
			return
		}
		if _, err := lexAll(src); err != nil {
			t.Fatalf("Parse(%q) succeeded, but lexing it fails: %v", src, err)
		}
		rendered := stmt.String()
		again, err := Parse(rendered)
		if err != nil {
			t.Fatalf("Parse(%q) succeeded, but its rendering %q does not parse: %v", src, rendered, err)
		}
		if got := again.String(); got != rendered {
			t.Fatalf("rendering of %q is not a fixpoint:\n1: %s\n2: %s", src, rendered, got)
		}
	})
}
