package engine_test

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/memo"
	"repro/internal/storage"
	"repro/internal/tpch"
)

// shapeCase is a query prepared after its template on one engine: the
// variant's structure miss must be answered from the template's shape.
type shapeCase struct {
	name, template, variant string
	cross                   bool
}

// literalVariant rewrites a TPC-H query's text with r (all replacements
// at once), keeping its shape.
func literalVariant(t testing.TB, name string, r *strings.Replacer) string {
	t.Helper()
	q, ok := tpch.Query(name)
	if !ok {
		t.Fatalf("no query %s", name)
	}
	v := r.Replace(q)
	if v == q {
		t.Fatalf("variant of %s replaced nothing", name)
	}
	return v
}

func shapeCases(t testing.TB) []shapeCase {
	t.Helper()
	tmpl := func(name string) string { q, _ := tpch.Query(name); return q }
	cases := []shapeCase{
		{"Q3", "Q3", literalVariant(t, "Q3", strings.NewReplacer("'BUILDING'", "'MACHINERY'", "'1995-03-15'", "'1995-03-27'")), false},
		{"Q5", "Q5", literalVariant(t, "Q5", strings.NewReplacer("'ASIA'", "'EUROPE'", "'1994-01-01'", "'1995-06-01'", "'1995-01-01'", "'1996-06-01'")), false},
		{"Q6", "Q6", literalVariant(t, "Q6", strings.NewReplacer("'1994-01-01'", "'1993-01-01'", "'1995-01-01'", "'1994-01-01'", "0.05", "0.02", "< 24", "< 40")), false},
		{"Q7", "Q7", literalVariant(t, "Q7", strings.NewReplacer("'FRANCE'", "'CHINA'", "'GERMANY'", "'JAPAN'")), false},
		{"Q8", "Q8", literalVariant(t, "Q8", strings.NewReplacer("'BRAZIL'", "'PERU'", "'AMERICA'", "'ASIA'", "'ECONOMY ANODIZED STEEL'", "'STANDARD POLISHED TIN'")), false},
		{"Q9", "Q9", literalVariant(t, "Q9", strings.NewReplacer("'%green%'", "'%blue%'")), false},
		{"Q10", "Q10", literalVariant(t, "Q10", strings.NewReplacer("'R'", "'A'", "'1993-10-01'", "'1994-04-01'", "'1994-01-01'", "'1994-07-01'")), false},
		{"Q3_filter", "Q3", literalVariant(t, "Q3", strings.NewReplacer("GROUP BY", "AND c_acctbal > 1000 AND l_quantity < 30\nGROUP BY")), false},
		{"Q7_aliases", "Q7", literalVariant(t, "Q7", strings.NewReplacer("n1", "supp_n", "n2", "cust_n")), false},
		{"Q8_cross", "Q8", literalVariant(t, "Q8", strings.NewReplacer("'BRAZIL'", "'CANADA'", "'AMERICA'", "'EUROPE'")), true},
	}
	// The churn templates: every literal the churn stream varies.
	for _, name := range []string{"Q3", "Q5", "Q10"} {
		lits := churnLiterals[name]
		for _, lit := range lits[1:] {
			cases = append(cases, shapeCase{name + "_churn_" + strings.Trim(lit, "'"), name,
				literalVariant(t, name, strings.NewReplacer(lits[0], lit)), false})
		}
	}
	for i := range cases {
		cases[i].template = tmpl(cases[i].template)
	}
	return cases
}

// distinctSpecs counts the distinct payload records of a memo and
// reports the first payload that points outside its query.
func distinctSpecs(m *memo.Memo) (int, error) {
	seen := map[any]bool{}
	for _, g := range m.Groups {
		for _, e := range g.Exprs {
			if e.Scan != nil {
				seen[e.Scan] = true
				if m.Query.Rels[e.Scan.Rel.Idx] != e.Scan.Rel {
					return 0, fmt.Errorf("%s scans a relation of another query", e.Name())
				}
			}
			if e.Lookup != nil {
				seen[e.Lookup] = true
				if m.Query.Rels[e.Lookup.Rel.Idx] != e.Lookup.Rel {
					return 0, fmt.Errorf("%s looks up a relation of another query", e.Name())
				}
			}
			if e.Join != nil {
				seen[e.Join] = true
				for _, p := range slices.Concat(e.Join.Equi, e.Join.Residual) {
					if !slices.Contains(m.Query.Preds, p) {
						return 0, fmt.Errorf("%s applies a predicate of another query", e.Name())
					}
				}
			}
		}
	}
	return len(seen), nil
}

// compareShared checks that p, built from a resident shape, equals
// fresh, a fresh engine's build of the same text, in everything a
// client can observe of the structure and its optimum.
func compareShared(t testing.TB, p, fresh *engine.Prepared, ranks int, execute bool) {
	t.Helper()
	if got, want := p.Shared.Memo.DumpAnnotated(p.Opt.Tables.CardOf), fresh.Shared.Memo.DumpAnnotated(fresh.Opt.Tables.CardOf); got != want {
		t.Fatalf("memo dump differs from a fresh build:\n%s\nwant:\n%s", got, want)
	}
	if got, want := p.Shared.Memo.Stats(), fresh.Shared.Memo.Stats(); got != want || p.Shared.MemoStats != want {
		t.Fatalf("memo stats %+v (recorded %+v), fresh %+v", got, p.Shared.MemoStats, want)
	}
	if p.Count().Cmp(fresh.Count()) != 0 {
		t.Fatalf("count %s, fresh %s", p.Count(), fresh.Count())
	}
	specs, err := distinctSpecs(p.Shared.Memo)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := distinctSpecs(fresh.Shared.Memo); specs != want {
		t.Fatalf("%d distinct payload records, fresh build %d", specs, want)
	}
	if math.Float64bits(p.OptimalCost()) != math.Float64bits(fresh.OptimalCost()) || p.Opt.OptimalRank.Cmp(fresh.Opt.OptimalRank) != 0 {
		t.Fatalf("optimum cost %.17g rank %s, fresh %.17g rank %s", p.OptimalCost(), p.Opt.OptimalRank, fresh.OptimalCost(), fresh.Opt.OptimalRank)
	}
	if got, want := p.OptimalPlan().String(), fresh.OptimalPlan().String(); got != want {
		t.Fatalf("optimal plan differs:\n%s\nwant:\n%s", got, want)
	}
	a, err := p.Sampler(11)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fresh.Sampler(11)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ranks; i++ {
		ra, pa, err := a.Next()
		if err != nil {
			t.Fatal(err)
		}
		rb, pb, err := b.Next()
		if err != nil {
			t.Fatal(err)
		}
		if ra.Cmp(rb) != 0 || pa.String() != pb.String() {
			t.Fatalf("draw %d: rank %s renders\n%s\nfresh rank %s renders\n%s", i, ra, pa, rb, pb)
		}
	}
	if !execute {
		return
	}
	ra, err := p.Execute(p.OptimalPlan())
	if err != nil {
		t.Fatal(err)
	}
	rb, err := fresh.Execute(fresh.OptimalPlan())
	if err != nil {
		t.Fatal(err)
	}
	if ra.Digest() != rb.Digest() {
		t.Fatalf("optimal plan's digest %s, fresh %s", ra.Digest(), rb.Digest())
	}
}

// TestShapeReuseMatchesFreshBuild: a literal variant of a resident
// query — every TPC-H query, the churn templates' literals, an extra
// filter, renamed aliases, and Q8 with Cartesian products — is built
// from the template's shape (a structure miss and a shape hit), and
// equals a fresh engine's build of the same text: memo dump and stats,
// count, payloads pointing into its own query only, 1,000 seeded plan
// renderings (with its own aliases), the optimum to the last bit, and
// the optimal plan's execution digest.
func TestShapeReuseMatchesFreshBuild(t *testing.T) {
	db := tinyTPCH(t)
	for _, c := range shapeCases(t) {
		t.Run(c.name, func(t *testing.T) {
			e := engine.New(db, engine.WithCartesian(c.cross))
			if _, err := e.Prepare(c.template); err != nil {
				t.Fatal(err)
			}
			p, err := e.Prepare(c.variant)
			if err != nil {
				t.Fatal(err)
			}
			if st := e.Cache().Stats(); p.Cached || st.Misses != 2 || st.ShapeHits != 1 {
				t.Fatalf("variant: cached=%v, %d misses and %d shape hits; want a miss answered from the shape", p.Cached, st.Misses, st.ShapeHits)
			}
			fresh, err := engine.New(db, engine.WithCartesian(c.cross)).Prepare(c.variant)
			if err != nil {
				t.Fatal(err)
			}
			compareShared(t, p, fresh, 1000, true)
			if c.name == "Q7_aliases" && !strings.Contains(p.OptimalPlan().String(), "supp_n") {
				t.Errorf("optimal plan does not show the variant's aliases:\n%s", p.OptimalPlan())
			}
		})
	}
}

// TestShapeReuseNegatives: queries BuildMemo expands differently never
// share a structure — a differing ORDER BY, an added join predicate, a
// differing Cartesian setting — and neither does a structure built
// against an older schema version.
func TestShapeReuseNegatives(t *testing.T) {
	q3, _ := tpch.Query("Q3")
	for _, c := range []struct {
		name, variant string
		cross         bool
	}{
		{"order_by", strings.Replace(q3, "ORDER BY revenue DESC, o_orderdate", "ORDER BY revenue DESC", 1), false},
		{"join_predicate", strings.Replace(q3, "GROUP BY", "AND c_nationkey = o_shippriority\nGROUP BY", 1), false},
		{"cartesian", q3, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := engine.New(tinyTPCH(t))
			if _, err := e.Prepare(q3); err != nil {
				t.Fatal(err)
			}
			p, err := e.Session(engine.WithCartesian(c.cross)).Prepare(c.variant)
			if err != nil {
				t.Fatal(err)
			}
			if st := e.Cache().Stats(); p.Cached || st.ShapeHits != 0 {
				t.Fatalf("cached=%v, %d shape hits; want a fresh build", p.Cached, st.ShapeHits)
			}
		})
	}
	t.Run("schema_version", func(t *testing.T) {
		db, err := tpch.NewDB(0.0001, 3)
		if err != nil {
			t.Fatal(err)
		}
		e := engine.New(db)
		if _, err := e.Prepare(q3); err != nil {
			t.Fatal(err)
		}
		db.Catalog().BumpSchema()
		p, err := e.Prepare(strings.Replace(q3, "'BUILDING'", "'MACHINERY'", 1))
		if err != nil {
			t.Fatal(err)
		}
		if st := e.Cache().Stats(); p.Cached || st.ShapeHits != 0 {
			t.Fatalf("cached=%v, %d shape hits after a schema bump; want a fresh build", p.Cached, st.ShapeHits)
		}
	})
}

// TestShapeReuseConcurrentEviction: cold Prepares of distinct literal
// variants of one shape from several goroutines, on a cache of two
// entries, so the structure each copies from is evicted under it. Every
// build must equal the variant's fresh build (run with -race).
func TestShapeReuseConcurrentEviction(t *testing.T) {
	db := tinyTPCH(t)
	q3, _ := tpch.Query("Q3")
	var variants []string
	for _, seg := range churnLiterals["Q3"] {
		for day := 10; day < 16; day++ {
			variants = append(variants, strings.NewReplacer("'BUILDING'", seg, "'1995-03-15'", fmt.Sprintf("'1995-03-%02d'", day)).Replace(q3))
		}
	}
	type optimum struct {
		rank string
		cost uint64
	}
	want := make([]optimum, len(variants))
	for i, v := range variants {
		p, err := engine.New(db).Prepare(v)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = optimum{p.Opt.OptimalRank.String(), math.Float64bits(p.OptimalCost())}
	}
	e := engine.New(db, engine.WithCacheLimits(2, engine.DefaultCacheBytes))
	if _, err := e.Prepare(q3); err != nil {
		t.Fatal(err)
	}
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(variants); i += workers {
				p, err := e.Prepare(variants[i])
				if err != nil {
					t.Error(err)
					return
				}
				if got := (optimum{p.Opt.OptimalRank.String(), math.Float64bits(p.OptimalCost())}); got != want[i] {
					t.Errorf("variant %d: optimum %+v, fresh build %+v", i, got, want[i])
				}
				res, err := p.ExecuteWith(context.Background(), p.OptimalPlan(), exec.Options{})
				if err != nil || res.Stats.Truncated {
					t.Errorf("variant %d: execute: %v", i, err)
				}
			}
		}()
	}
	wg.Wait()
	if st := e.Cache().Stats(); st.ShapeHits == 0 || st.Evictions == 0 || st.Entries > 2 {
		t.Errorf("stream too tame or cache over its cap: %+v", st)
	}
}

// FuzzShapeReuse substitutes random dates, strings and numbers into the
// churn templates (Q3, Q5, Q10) and checks that the build from the
// template's resident shape equals a fresh build: count, optimal cost
// to the last bit and rank, and memo dump with cardinalities.
func FuzzShapeReuse(f *testing.F) {
	f.Add(uint8(0), "MACHINERY", int16(30), int16(10))
	f.Add(uint8(1), "MIDDLE EAST", int16(-400), int16(900))
	f.Add(uint8(2), "N", int16(0), int16(0))
	f.Add(uint8(0), "it's", int16(5000), int16(-1))
	db := fuzzDB(f)
	templates := [3]string{"Q3", "Q5", "Q10"}
	engines := [3]*engine.Engine{}
	for i, name := range templates {
		q, _ := tpch.Query(name)
		engines[i] = engine.New(db, engine.WithCacheLimits(4, engine.DefaultCacheBytes))
		if _, err := engines[i].Prepare(q); err != nil {
			f.Fatal(err)
		}
	}
	f.Fuzz(func(t *testing.T, which uint8, str string, days, num int16) {
		i := int(which) % len(templates)
		name := templates[i]
		q, _ := tpch.Query(name)
		lit := "'" + strings.ReplaceAll(str, "'", "''") + "'"
		date := func(base string, shift int16) string {
			d, err := time.Parse(time.DateOnly, base)
			if err != nil {
				t.Fatal(err)
			}
			return "DATE '" + d.AddDate(0, 0, int(shift)).Format("2006-01-02") + "'"
		}
		var r *strings.Replacer
		switch name {
		case "Q3":
			r = strings.NewReplacer("'BUILDING'", lit, "DATE '1995-03-15'", date("1995-03-15", days))
		case "Q5":
			r = strings.NewReplacer("'ASIA'", lit, "DATE '1994-01-01'", date("1994-01-01", days), "DATE '1995-01-01'", date("1995-01-01", num))
		default:
			r = strings.NewReplacer("'R'", lit, "DATE '1993-10-01'", date("1993-10-01", days), "DATE '1994-01-01'", date("1994-01-01", num))
		}
		variant := r.Replace(q)
		before := engines[i].Cache().Stats()
		p, err := engines[i].Prepare(variant)
		fresh, ferr := engine.New(db).Prepare(variant)
		if (err == nil) != (ferr == nil) {
			t.Fatalf("shared build error %v, fresh build error %v", err, ferr)
		}
		if err != nil {
			return
		}
		if after := engines[i].Cache().Stats(); !p.Cached && after.ShapeHits != before.ShapeHits+1 {
			t.Fatalf("a miss of a %s variant was not answered from its shape: %+v", name, after)
		}
		compareShared(t, p, fresh, 0, false)
	})
}

// fuzzDB is the fuzz target's database, smaller than the tests' so a
// fresh build and its costing stay fast.
func fuzzDB(f *testing.F) *storage.DB {
	db, err := tpch.NewDB(0.0002, 5)
	if err != nil {
		f.Fatal(err)
	}
	return db
}
