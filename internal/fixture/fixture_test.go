package fixture

import (
	"math/big"
	"testing"

	"repro/internal/core"
	"repro/internal/memo"
	"repro/internal/plan"
)

// TestFigure3Counts verifies every count annotation legible in the
// paper's Figure 3 against our counting implementation (experiment E5).
func TestFigure3Counts(t *testing.T) {
	p := New()
	s, err := core.Prepare(p.Memo)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}

	checks := []struct {
		op   string
		want int64
	}{
		{"1.2", 1}, // TableScan A
		{"1.3", 1}, // SortedIDXScan A
		{"1.4", 2}, // Sort enforcer: N(1.2) + N(1.3)
		{"2.2", 1},
		{"2.3", 1},
		{"3.3", 8}, // Figure 3: 2 * 4 = 8
		{"3.4", 3}, // Figure 3: 1 * 3 = 3
		{"4.2", 1},
		{"4.3", 1},
		{"7.7", 22}, // Figure 3: 2 * 11 = 22
		{"7.8", 3},  // MergeJoin(C sorted, AB sorted): 1 * 3
	}
	for _, c := range checks {
		got := s.CountFor(p.Op(c.op))
		if got.Cmp(big.NewInt(c.want)) != 0 {
			t.Errorf("N(%s) = %s, want %d", c.op, got, c.want)
		}
	}

	// Group 3 offers 8 + 3 = 11 alternatives, which is the b-value 7.7
	// multiplies by ("2 * 11 = 22").
	g3sum := new(big.Int)
	for _, e := range p.Op("3.3").Group.Physical {
		g3sum.Add(g3sum, s.CountFor(e))
	}
	if g3sum.Cmp(big.NewInt(11)) != 0 {
		t.Errorf("group 3 alternatives = %s, want 11", g3sum)
	}

	if want := big.NewInt(25); s.Count().Cmp(want) != 0 {
		t.Errorf("total N = %s, want %s (22 for 7.7 plus 3 for 7.8)", s.Count(), want)
	}
}

// TestAppendixExample verifies the appendix's worked example (experiment
// E6): the plan consisting of operators {7.7, 4.3, 3.4, 2.3, 1.3}. The
// appendix's printed arithmetic is internally inconsistent (see
// DESIGN.md); with the paper's own formulas applied consistently the plan
// sits at rank 17: sub-rank 1 for child 1 (skip 4.2), sub-rank 8+0 for
// child 2 (skip N(3.3)=8 plans, take 3.4's first), local rank
// 1 + 8·b(1) = 1 + 8·2 = 17.
func TestAppendixExample(t *testing.T) {
	p := New()
	s, err := core.Prepare(p.Memo)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	want := p.AppendixPlan()
	if err := want.Validate(); err != nil {
		t.Fatalf("appendix plan invalid: %v", err)
	}

	r, err := s.Rank(want)
	if err != nil {
		t.Fatalf("Rank: %v", err)
	}
	if r.Cmp(big.NewInt(17)) != 0 {
		t.Errorf("Rank(appendix plan) = %s, want 17", r)
	}

	got, err := s.Unrank(big.NewInt(17))
	if err != nil {
		t.Fatalf("Unrank(17): %v", err)
	}
	if !plan.Equal(got, want) {
		t.Errorf("Unrank(17) =\n%swant\n%s", got, want)
	}
	var gotNames []string
	for _, op := range got.Operators() {
		gotNames = append(gotNames, op.Name())
	}
	wantNames := []string{"7.7", "4.3", "3.4", "1.3", "2.3"}
	if len(gotNames) != len(wantNames) {
		t.Fatalf("operators %v, want %v", gotNames, wantNames)
	}
	for i := range wantNames {
		if gotNames[i] != wantNames[i] {
			t.Errorf("operator[%d] = %s, want %s", i, gotNames[i], wantNames[i])
		}
	}
}

// TestUnrank13 documents what consistent arithmetic yields for the
// appendix's rank 13: the root is 7.7 with local rank 13, child 1 gets
// sub-rank 13 mod 2 = 1 (operator 4.3) and child 2 gets ⌊13/2⌋ = 6,
// which falls inside N(3.3) = 8 — operator 3.3, not the 3.4 the appendix
// prints (erratum).
func TestUnrank13(t *testing.T) {
	p := New()
	s, err := core.Prepare(p.Memo)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	got, err := s.Unrank(big.NewInt(13))
	if err != nil {
		t.Fatalf("Unrank(13): %v", err)
	}
	if got.Expr != p.Op("7.7") {
		t.Fatalf("root = %s, want 7.7", got.Expr.Name())
	}
	if got.Children[0].Expr != p.Op("4.3") {
		t.Errorf("child 1 = %s, want 4.3", got.Children[0].Expr.Name())
	}
	if got.Children[1].Expr != p.Op("3.3") {
		t.Errorf("child 2 = %s, want 3.3 (the appendix's 3.4 is the erratum)", got.Children[1].Expr.Name())
	}
}

// allPlans collects every plan of a small space in rank order.
func allPlans(t *testing.T, s *core.Space) []*plan.Node {
	t.Helper()
	var plans []*plan.Node
	if err := s.Enumerate(func(_ *big.Int, p *plan.Node) bool {
		plans = append(plans, p)
		return true
	}); err != nil {
		t.Fatalf("Enumerate: %v", err)
	}
	return plans
}

// TestExhaustiveEnumeration checks the bijection on the fixture space:
// all 25 plans enumerate, are pairwise distinct, validate, and round-trip
// through Rank.
func TestExhaustiveEnumeration(t *testing.T) {
	p := New()
	s, err := core.Prepare(p.Memo)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	plans := allPlans(t, s)
	if len(plans) != 25 {
		t.Fatalf("enumerated %d plans, want 25", len(plans))
	}
	seen := make(map[string]int)
	for i, pl := range plans {
		if err := pl.Validate(); err != nil {
			t.Errorf("plan %d invalid: %v", i, err)
		}
		d := pl.Digest()
		if prev, dup := seen[d]; dup {
			t.Errorf("plans %d and %d are identical", prev, i)
		}
		seen[d] = i
		r, err := s.Rank(pl)
		if err != nil {
			t.Errorf("Rank(plan %d): %v", i, err)
			continue
		}
		if r.Cmp(big.NewInt(int64(i))) != 0 {
			t.Errorf("Rank(Unrank(%d)) = %s", i, r)
		}
	}
}

// TestRootOperatorRanges checks the layout of root rank ranges: 7.7
// covers 0..21, 7.8 covers 22..24.
func TestRootOperatorRanges(t *testing.T) {
	p := New()
	s, err := core.Prepare(p.Memo)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	for r := int64(0); r < 22; r++ {
		pl, err := s.Unrank(big.NewInt(r))
		if err != nil {
			t.Fatalf("Unrank(%d): %v", r, err)
		}
		if pl.Expr != p.Op("7.7") {
			t.Errorf("rank %d rooted in %s, want 7.7", r, pl.Expr.Name())
		}
	}
	for r := int64(22); r < 25; r++ {
		pl, err := s.Unrank(big.NewInt(r))
		if err != nil {
			t.Fatalf("Unrank(%d): %v", r, err)
		}
		if pl.Expr != p.Op("7.8") {
			t.Errorf("rank %d rooted in %s, want 7.8", r, pl.Expr.Name())
		}
	}
}

// TestOutOfRange verifies rank bounds checking.
func TestOutOfRange(t *testing.T) {
	p := New()
	s, err := core.Prepare(p.Memo)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	if _, err := s.Unrank(big.NewInt(25)); err == nil {
		t.Error("Unrank(25) succeeded, want out-of-range error")
	}
	if _, err := s.Unrank(big.NewInt(-1)); err == nil {
		t.Error("Unrank(-1) succeeded, want out-of-range error")
	}
}

// TestSamplingUniformity draws from the 25-plan fixture space and checks
// every plan appears with roughly uniform frequency — the property that
// makes the paper's stochastic testing unbiased.
func TestSamplingUniformity(t *testing.T) {
	p := New()
	s, err := core.Prepare(p.Memo)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	smp, err := s.NewSampler(12345)
	if err != nil {
		t.Fatalf("NewSampler: %v", err)
	}
	const draws = 25000
	counts := make(map[string]int)
	for i := 0; i < draws; i++ {
		r := smp.NextRank()
		counts[r.String()]++
	}
	if len(counts) != 25 {
		t.Fatalf("sampled %d distinct ranks, want 25", len(counts))
	}
	expected := float64(draws) / 25
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// 24 degrees of freedom; the 0.999 quantile is ~51.2. Flag anything
	// beyond it as non-uniform.
	if chi2 > 51.2 {
		t.Errorf("chi-square = %.1f over 24 dof; sampling looks non-uniform", chi2)
	}
}

// TestFilteredSpace checks WithFilter: removing operator 3.4 eliminates
// the 2·3 = 6 plans routed through it under 7.7 and all 3 plans of 7.8
// (3.4 was its only child-2 candidate, so N(7.8) drops to 0):
// 25 - 6 - 3 = 16.
func TestFilteredSpace(t *testing.T) {
	p := New()
	excluded := p.Op("3.4")
	s, err := core.Prepare(p.Memo, core.WithFilter(func(e *memo.Expr) bool { return e != excluded }))
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	if want := big.NewInt(16); s.Count().Cmp(want) != 0 {
		t.Errorf("filtered count = %s, want %s", s.Count(), want)
	}
	plans := allPlans(t, s)
	for i, pl := range plans {
		for _, op := range pl.Operators() {
			if op == excluded {
				t.Errorf("plan %d contains the excluded operator", i)
			}
		}
	}
}
