package engine

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/rules"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/tpch"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// checkGolden compares got with the named file under testdata, or
// rewrites the file when the test runs with -update (then git diff
// shows what changed).
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := "testdata/" + name
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s; run the test with -update and inspect git diff", path)
	}
}

// canonicalOf is the text Prepare fingerprints for sqlText, and the
// fingerprint itself under the default rules, catalog 1, schema 1.
func canonicalOf(t *testing.T, sqlText string) (string, string) {
	t.Helper()
	stmt, err := sql.Parse(sqlText)
	if err != nil {
		t.Fatalf("parse %q: %v", sqlText, err)
	}
	bare := *stmt
	bare.Option = nil
	canonical := bare.String()
	return canonical, structureFingerprintOf([]byte(canonical), rules.Default(), 1, 1).String()
}

// caseVariant lower-cases the SQL outside string literals and spreads
// its whitespace over tabs, newlines and a trailing comment — none of
// which may change the canonical text.
func caseVariant(sqlText string) string {
	var sb strings.Builder
	inQuote := false
	for i := 0; i < len(sqlText); i++ {
		c := sqlText[i]
		switch {
		case c == '\'':
			inQuote = !inQuote
			sb.WriteByte(c)
		case inQuote:
			sb.WriteByte(c)
		case c == ' ' || c == '\n':
			sb.WriteString(" \t\r\n ")
		case c >= 'A' && c <= 'Z':
			sb.WriteByte(c + 'a' - 'A')
		default:
			sb.WriteByte(c)
		}
	}
	sb.WriteString(" -- variant\n;")
	return sb.String()
}

// TestFingerprintGolden pins the canonical text and the structure
// fingerprint of every TPC-H query. A USEPLAN variant and a
// case-and-whitespace variant must share the plain query's canonical
// text and fingerprint: they select within the same space.
func TestFingerprintGolden(t *testing.T) {
	var sb strings.Builder
	for _, name := range tpch.QueryNames() {
		sqlText, _ := tpch.Query(name)
		canonical, fp := canonicalOf(t, sqlText)
		sb.WriteString("== " + name + "\n" + canonical + "\n" + fp + "\n")
		for _, v := range []string{sqlText + " OPTION (USEPLAN 1)", caseVariant(sqlText)} {
			vc, vfp := canonicalOf(t, v)
			if vc != canonical || vfp != fp {
				t.Errorf("%s: variant %q\ncanonical %s\nfingerprint %s\nwant %s", name, v, vc, vfp, fp)
			}
		}
	}
	checkGolden(t, "fingerprints.golden", sb.String())
}

// TestPlanRenderingGolden pins plan.Node.String and Prepared.Explain of
// the optimal plan and of eight seeded uniform draws of Q5, Q8 and
// Q8 with Cartesian products (the wide tier).
func TestPlanRenderingGolden(t *testing.T) {
	db, err := tpch.NewDB(0.0004, 42)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, c := range []struct {
		name  string
		query string
		cross bool
	}{{"Q5", "Q5", false}, {"Q8", "Q8", false}, {"Q8cross", "Q8", true}} {
		renderGolden(t, &sb, db, c.name, c.query, c.cross)
	}
	checkGolden(t, "plans.golden", sb.String())
}

func renderGolden(t *testing.T, sb *strings.Builder, db *storage.DB, name, query string, cross bool) {
	t.Helper()
	sqlText, _ := tpch.Query(query)
	p, err := New(db, WithCartesian(cross)).Prepare(sqlText)
	if err != nil {
		t.Fatal(err)
	}
	smp, err := p.Sampler(7)
	if err != nil {
		t.Fatal(err)
	}
	render := func(label string, pl *plan.Node) {
		tree, _, err := p.Explain(pl)
		if err != nil {
			t.Fatalf("%s %s: explain: %v", name, label, err)
		}
		sb.WriteString("== " + name + " " + label + "\n-- String\n" + pl.String() + "-- Explain\n" + tree)
	}
	render("optimal rank "+p.Opt.OptimalRank.String(), p.OptimalPlan())
	for i := 0; i < 8; i++ {
		rank, pl, err := smp.Next()
		if err != nil {
			t.Fatal(err)
		}
		render("rank "+rank.String(), pl)
	}
}

// TestOptimumGolden pins the optimizer's choice for every TPC-H query,
// with and without Cartesian products: the optimal plan's rank, its
// cost to the last bit, its rendering, and how many operators a pruning
// optimizer would retain. Ties between equally cheap operators go to
// the first in group order, so this also pins the winner search's
// tie-breaking.
func TestOptimumGolden(t *testing.T) {
	db, err := tpch.NewDB(0.0004, 42)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, name := range tpch.QueryNames() {
		sqlText, _ := tpch.Query(name)
		for _, cross := range []bool{false, true} {
			p, err := New(db, WithCartesian(cross)).Prepare(sqlText)
			if err != nil {
				t.Fatalf("%s cross=%v: %v", name, cross, err)
			}
			fmt.Fprintf(&sb, "== %s cross=%v rank=%s cost=%.17g retained=%d\n%s", name, cross,
				p.Opt.OptimalRank, p.OptimalCost(), len(p.Opt.RetainedExprs()), p.OptimalPlan())
		}
	}
	checkGolden(t, "optimum.golden", sb.String())
}

// TestFeedbackKeyGolden pins feedbackKey for every relation subset of
// Q3, Q5, Q7 and Q10. The keys render filter constants (strings, dates
// and numbers) and name the corrections feedback stores, so a change
// in how a bound constant prints would orphan every stored correction.
func TestFeedbackKeyGolden(t *testing.T) {
	db, err := tpch.NewDB(0.0004, 42)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, name := range []string{"Q3", "Q5", "Q7", "Q10"} {
		sqlText, _ := tpch.Query(name)
		stmt, err := sql.Parse(sqlText)
		if err != nil {
			t.Fatal(err)
		}
		q, err := algebra.Build(stmt, db.Catalog())
		if err != nil {
			t.Fatal(err)
		}
		sb.WriteString("== " + name + "\n")
		for s := algebra.RelSet(1); s <= q.AllRels; s++ {
			if s.SubsetOf(q.AllRels) {
				sb.WriteString(s.String() + " " + feedbackKey(q, s) + "\n")
			}
		}
	}
	checkGolden(t, "feedback_keys.golden", sb.String())
}

// TestCorrectedOverlayGolden pins what one feedback round does to the
// estimates: for Q3, Q5, Q7 and Q10 it executes the optimal plan,
// folds the observations with ApplyFeedback and re-prepares, then
// records every group's corrected cardinality, the new optimal rank and
// the new optimal cost.
func TestCorrectedOverlayGolden(t *testing.T) {
	db, err := tpch.NewDB(0.0004, 42)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, name := range []string{"Q3", "Q5", "Q7", "Q10"} {
		sqlText, _ := tpch.Query(name)
		e := New(db)
		if _, err := e.Session().Execute(context.Background(), sqlText, nil, exec.Options{}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		folded, epoch := e.ApplyFeedback()
		p, err := e.Prepare(sqlText)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !p.Cached || p.OverlayCached {
			t.Fatalf("%s: re-prepare after feedback: cached=%v overlay_cached=%v, want a re-cost", name, p.Cached, p.OverlayCached)
		}
		fmt.Fprintf(&sb, "== %s folded=%d epoch=%d rank=%s cost=%s\n", name, folded, epoch,
			p.Opt.OptimalRank, strconv.FormatFloat(p.OptimalCost(), 'g', -1, 64))
		for _, g := range p.Shared.Memo.Groups {
			fmt.Fprintf(&sb, "g%d %s %s\n", g.ID, g.RelSet, strconv.FormatFloat(p.Opt.Tables.CardOf(g), 'g', -1, 64))
		}
	}
	checkGolden(t, "corrected_overlay.golden", sb.String())
}
