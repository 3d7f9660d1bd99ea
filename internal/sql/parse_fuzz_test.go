package sql

import "testing"

// FuzzParse checks two properties of the parser on arbitrary input:
// Parse never panics, and a statement it accepts renders (String) to
// SQL that parses again to the same rendering. The second property is
// what keeps query fingerprints, which hash the rendered SQL, stable.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		// Well-formed, covering every clause and expression form.
		"SELECT a, SUM(b) AS s FROM t1, t2 x WHERE (a = 1 AND b < 2) GROUP BY a ORDER BY s DESC OPTION (USEPLAN 8)",
		"SELECT DISTINCT t.a FROM t INNER JOIN u ON t.a = u.b JOIN v ON u.c = v.c",
		"SELECT CASE WHEN a > 1 THEN 'x' ELSE 'y' END, COUNT(*) FROM t WHERE a BETWEEN 1 AND 2 OR b NOT IN (1, 2.5, -3)",
		"SELECT a FROM t WHERE s LIKE '%x_y%' AND d >= DATE '1995-03-15' AND NOT c IS NULL",
		"SELECT -a * (b + 1) / 2 - c FROM t WHERE a <> 1 AND b != 2 AND c <= 3 AND e >= 4 AND f > 5",
		"SELECT a FROM t WHERE b = 'x''y' AND c NOT LIKE 'it''s%'",
		"SELECT EXTRACT(YEAR FROM d), SUBSTRING(s, 1, 2) FROM t WHERE TRUE AND NOT FALSE AND a = NULL",
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
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		stmt, err := Parse(src)
		if err != nil {
			return
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
