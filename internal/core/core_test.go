package core

import (
	"math/big"
	"sync"
	"testing"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/cost"
	"repro/internal/data"
	"repro/internal/fixture"
	"repro/internal/memo"
	"repro/internal/plan"
	"repro/internal/rules"
	"repro/internal/sql"
)

// starSchema: fact joined to three dimensions — a richer join graph than
// the fixture, with indexes so property-constrained candidates appear.
func starSchema() *catalog.Catalog {
	c := catalog.New()
	mk := func(name string, rows int64, cols ...string) {
		t := &catalog.Table{Name: name, RowCount: rows, AvgRowBytes: 40}
		for _, cn := range cols {
			t.Columns = append(t.Columns, catalog.Column{
				Name: cn, Kind: data.KindInt,
				Stats: catalog.ColumnStats{NDV: rows, Min: data.NewInt(0), Max: data.NewInt(rows)},
			})
		}
		t.Indexes = []catalog.Index{{Name: "pk_" + name, KeyCols: []int{0}}}
		c.MustAdd(t)
	}
	mk("fact", 10000, "f1", "f2", "f3")
	mk("d1", 100, "k1", "v1")
	mk("d2", 50, "k2", "v2")
	mk("d3", 20, "k3", "v3")
	return c
}

// prepared counts the space of text over the star schema and folds its
// default costs for the optimal plan.
func prepared(t *testing.T, text string) (*Space, *plan.Node) {
	t.Helper()
	stmt, err := sql.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	q, err := algebra.Build(stmt, starSchema())
	if err != nil {
		t.Fatal(err)
	}
	m, err := rules.BuildMemo(q, rules.Default())
	if err != nil {
		t.Fatal(err)
	}
	s, err := Prepare(m)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := cost.Fill(m, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	best, _, err := s.Cheapest(tab.Combine)
	if err != nil {
		t.Fatal(err)
	}
	return s, best
}

const starQuery = "SELECT v1 FROM fact, d1, d2, d3 WHERE f1 = k1 AND f2 = k2 AND f3 = k3"

// TestRankUnrankBijectionSampled: on a space far too large to enumerate,
// uniform samples must round-trip Rank(Unrank(r)) == r, and every plan
// must validate.
func TestRankUnrankBijectionSampled(t *testing.T) {
	s, _ := prepared(t, starQuery)
	if s.Count().Sign() <= 0 {
		t.Fatalf("empty space")
	}
	smp, err := s.NewSampler(99)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		r := smp.NextRank()
		p, err := s.Unrank(r)
		if err != nil {
			t.Fatalf("Unrank(%s): %v", r, err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("plan %s invalid: %v", r, err)
		}
		back, err := s.Rank(p)
		if err != nil {
			t.Fatalf("Rank: %v", err)
		}
		if back.Cmp(r) != 0 {
			t.Fatalf("Rank(Unrank(%s)) = %s", r, back)
		}
	}
}

// TestCountMatchesExhaustiveDistinctness on a small space: N equals the
// number of pairwise-distinct enumerated plans.
func TestCountMatchesExhaustiveDistinctness(t *testing.T) {
	s, _ := prepared(t, "SELECT v1 FROM fact, d1 WHERE f1 = k1")
	n := s.Count()
	if !n.IsInt64() || n.Int64() > 100000 {
		t.Fatalf("space unexpectedly large: %s", n)
	}
	seen := make(map[string]bool)
	err := s.Enumerate(func(_ *big.Int, p *plan.Node) bool {
		seen[p.Digest()] = true
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(seen)) != n.Int64() {
		t.Errorf("count %s but %d distinct plans", n, len(seen))
	}
}

// TestCountingVisitsEachOperatorOnce: the paper's complexity claim —
// counting is linear in MEMO size. The operators counted must equal the
// number of physical operators.
func TestCountingVisitsEachOperatorOnce(t *testing.T) {
	s, _ := prepared(t, starQuery)
	want := s.Memo.Stats().PhysicalOps
	if got := len(s.ops); got != want {
		t.Errorf("counted %d operators, memo has %d physical", len(s.ops), want)
	}
}

func TestEnumerateRange(t *testing.T) {
	s, _ := prepared(t, "SELECT v1 FROM fact, d1 WHERE f1 = k1")
	var ranks []int64
	err := s.EnumerateRange(big.NewInt(5), big.NewInt(9), func(r *big.Int, _ *plan.Node) bool {
		ranks = append(ranks, r.Int64())
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ranks) != 4 || ranks[0] != 5 || ranks[3] != 8 {
		t.Errorf("range ranks = %v", ranks)
	}
	// Early termination via yield.
	count := 0
	err = s.Enumerate(func(*big.Int, *plan.Node) bool {
		count++
		return count < 3
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Errorf("yield-false did not stop enumeration: %d", count)
	}
}

// TestEnumerateRangeClamps: a range reaching below 0 or past N is
// clamped to [0, N) on every tier — the same way on each.
func TestEnumerateRangeClamps(t *testing.T) {
	tiers := []struct {
		name string
		opts []Option
	}{
		{"uint64", nil},
		{"wide", []Option{WithWideArithmetic()}},
	}
	cases := []struct {
		lo, hi int64
		want   []int64 // first and last rank visited; nil = none
		n      int
	}{
		{lo: -1, hi: 3, want: []int64{0, 2}, n: 3},
		{lo: -5, hi: 0, n: 0},
		{lo: 22, hi: 1000, want: []int64{22, 24}, n: 3},
		{lo: -3, hi: -1, n: 0},
		{lo: 4, hi: 4, n: 0},
	}
	for _, tier := range tiers {
		s, err := Prepare(fixture.New().Memo, tier.opts...)
		if err != nil {
			t.Fatal(err)
		}
		if s.Arithmetic() != tier.name || s.Count().Int64() != 25 {
			t.Fatalf("%s: fixture is %s with %s plans, want %s with 25", tier.name, s.Arithmetic(), s.Count(), tier.name)
		}
		for _, tc := range cases {
			var ranks []int64
			err := s.EnumerateRange(big.NewInt(tc.lo), big.NewInt(tc.hi), func(r *big.Int, _ *plan.Node) bool {
				ranks = append(ranks, r.Int64())
				return true
			})
			if err != nil {
				t.Errorf("%s [%d, %d): %v", tier.name, tc.lo, tc.hi, err)
				continue
			}
			if len(ranks) != tc.n || (tc.n > 0 && (ranks[0] != tc.want[0] || ranks[tc.n-1] != tc.want[1])) {
				t.Errorf("%s [%d, %d): visited %v, want %d ranks spanning %v", tier.name, tc.lo, tc.hi, ranks, tc.n, tc.want)
			}
		}
	}
}

func TestAllRejectsHugeSpaces(t *testing.T) {
	s, _ := prepared(t, starQuery)
	if s.Count().IsInt64() && s.Count().Int64() < 10_000_000 {
		t.Skip("space too small to exercise the guard")
	}
	_, err := s.All()
	if _, ok := err.(*SpaceTooLargeError); !ok {
		t.Errorf("All on huge space: %v, want SpaceTooLargeError", err)
	}
}

// TestConcurrentUnrank: a Space is immutable after Prepare and safe for
// concurrent use (run with -race).
func TestConcurrentUnrank(t *testing.T) {
	s, _ := prepared(t, starQuery)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			smp, err := s.NewSampler(seed)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 50; i++ {
				r := smp.NextRank()
				p, err := s.Unrank(r)
				if err != nil {
					t.Errorf("Unrank: %v", err)
					return
				}
				back, err := s.Rank(p)
				if err != nil || back.Cmp(r) != 0 {
					t.Errorf("round trip failed: %v", err)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
}

// TestSamplerDeterminism: same seed, same sequence of ranks.
func TestSamplerDeterminism(t *testing.T) {
	s, _ := prepared(t, starQuery)
	a, err := s.NewSampler(42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.NewSampler(42)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if a.NextRank().Cmp(b.NextRank()) != 0 {
			t.Fatal("samplers with equal seeds diverged")
		}
	}
	c, err := s.NewSampler(43)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := 0; i < 10; i++ {
		if a.NextRank().Cmp(c.NextRank()) != 0 {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

// TestSampleBatch draws k plans with replacement.
func TestSampleBatch(t *testing.T) {
	s, _ := prepared(t, starQuery)
	smp, err := s.NewSampler(7)
	if err != nil {
		t.Fatal(err)
	}
	var plans []*plan.Node
	err = smp.Each(25, nil, func(_ int, _ []uint64, p *plan.Node) error {
		plans = append(plans, p)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != 25 {
		t.Fatalf("Each yielded %d plans", len(plans))
	}
	for _, p := range plans {
		if err := p.Validate(); err != nil {
			t.Errorf("sampled plan invalid: %v", err)
		}
	}
}

// TestRankRejectsForeignPlan: plans built from another memo's operators
// must be rejected, not mis-ranked.
func TestRankRejectsForeignPlan(t *testing.T) {
	s1, _ := prepared(t, "SELECT v1 FROM fact, d1 WHERE f1 = k1")
	_, best2 := prepared(t, "SELECT v2 FROM fact, d2 WHERE f2 = k2")
	if _, err := s1.Rank(best2); err == nil {
		t.Error("ranking a foreign plan succeeded")
	}
}

// TestOptimalRankRoundTrip: the optimizer's plan has a rank and unranking
// that rank reproduces the plan exactly — "what number is the plan the
// optimizer chose?"
func TestOptimalRankRoundTrip(t *testing.T) {
	s, best := prepared(t, starQuery)
	r, err := s.Rank(best)
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.Unrank(r)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Equal(p, best) {
		t.Error("Unrank(Rank(best)) != best")
	}
}

// TestPrepareRequiresRoot guards the error path.
func TestPrepareRequiresRoot(t *testing.T) {
	q := algebra.NewQuery()
	m := memo.New(q)
	if _, err := Prepare(m); err == nil {
		t.Error("Prepare on rootless memo succeeded")
	}
}
