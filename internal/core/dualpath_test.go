package core

import (
	"math"
	"math/big"
	"testing"

	"repro/internal/algebra"
	"repro/internal/fixture"
	"repro/internal/memo"
	"repro/internal/oracle"
	"repro/internal/plan"
)

// bothPaths prepares m on its production tier (uint64 when the space
// fits) and builds the independent reference oracle over the same memo;
// the two must count the same space.
func bothPaths(t *testing.T, m *memo.Memo) (*Space, *oracle.Oracle) {
	t.Helper()
	s, err := Prepare(m)
	if err != nil {
		t.Fatal(err)
	}
	ref := oracle.New(m)
	if s.Count().Cmp(ref.Count()) != 0 {
		t.Fatalf("counts differ: core %s, oracle %s", s.Count(), ref.Count())
	}
	return s, ref
}

// agreeWithOracle unranks r on s (into a; nil: fresh nodes) and on the
// oracle, requires the same plan from both, and ranks each side's plan
// back on the other side.
func agreeWithOracle(t testing.TB, s *Space, ref *oracle.Oracle, r *big.Int, a *Arena) {
	t.Helper()
	p, err := s.UnrankBigInto(r, a)
	if err != nil {
		t.Fatalf("core Unrank(%s): %v", r, err)
	}
	q, err := ref.Unrank(r)
	if err != nil {
		t.Fatalf("oracle Unrank(%s): %v", r, err)
	}
	if !plan.Equal(p, q) {
		t.Fatalf("rank %s: core plan %s, oracle plan %s", r, p.Digest(), q.Digest())
	}
	if back, err := s.Rank(q); err != nil || back.Cmp(r) != 0 {
		t.Fatalf("core Rank(Unrank(%s)) = %v, %v", r, back, err)
	}
	if back, err := ref.Rank(p); err != nil || back.Cmp(r) != 0 {
		t.Fatalf("oracle Rank(Unrank(%s)) = %v, %v", r, back, err)
	}
}

// TestDualPathDifferentialFixture runs the differential suite on the
// paper fixture: the same count as the oracle, and for every rank and
// for production-sampled ranks the same plan and the same rank back,
// through every uint64 entry point.
func TestDualPathDifferentialFixture(t *testing.T) {
	fast, ref := bothPaths(t, fixture.New().Memo)
	if fast.Arithmetic() != "uint64" || !fast.Count().IsUint64() || fast.Count().Uint64() != 25 {
		t.Fatalf("fixture space: tier %s, count %s; want uint64 with 25", fast.Arithmetic(), fast.Count())
	}

	// Exhaustive: every rank unranks to the oracle's plan, and the
	// fresh and arena entry points agree.
	var arena Arena
	for r := uint64(0); r < 25; r++ {
		pf, err := fast.UnrankInto(r, nil)
		if err != nil {
			t.Fatalf("UnrankInto(%d): %v", r, err)
		}
		pa, err := fast.UnrankInto(r, &arena)
		if err != nil {
			t.Fatalf("UnrankInto(%d): %v", r, err)
		}
		if pa.Digest() != pf.Digest() {
			t.Fatalf("rank %d: arena plan differs from fresh plan", r)
		}
		back, err := fast.Rank(pf)
		if err != nil || !back.IsUint64() || back.Uint64() != r {
			t.Fatalf("Rank(UnrankInto(%d)) = %v, %v", r, back, err)
		}
		agreeWithOracle(t, fast, ref, new(big.Int).SetUint64(r), nil)
	}

	fs, err := fast.NewSampler(99)
	if err != nil {
		t.Fatal(err)
	}
	if !fs.Fast() {
		t.Fatal("fixture sampler is not on the uint64 tier")
	}
	for i := 0; i < 100; i++ {
		agreeWithOracle(t, fast, ref, fs.NextRank(), &arena)
	}
}

// TestDualPathDifferentialStar repeats the differential checks on the
// optimizer-built star-join spaces, including one far too large to
// enumerate: counts, sampled plans, and round-trip ranks must agree
// with the oracle for ~1k production-sampled ranks.
func TestDualPathDifferentialStar(t *testing.T) {
	for _, query := range []string{
		"SELECT v1 FROM fact, d1 WHERE f1 = k1",
		starQuery,
	} {
		prep, _ := prepared(t, query)
		s, ref := bothPaths(t, prep.Memo)
		if s.Arithmetic() != "uint64" || !s.Count().IsUint64() {
			t.Fatalf("star space %s should fit uint64", s.Count())
		}

		iters := 1000
		if testing.Short() {
			iters = 200
		}
		fs, err := s.NewSampler(4242)
		if err != nil {
			t.Fatal(err)
		}
		var arena Arena
		for i := 0; i < iters; i++ {
			agreeWithOracle(t, s, ref, fs.NextRank(), &arena)
		}
	}
}

// chainMemo builds a synthetic memo whose space holds exactly
// 2^(joinLevels+1) plans: a leaf group with two scan operators, then
// joinLevels single-slot join levels with two operators each, doubling
// the per-operator count at every level, topped by a root group. It is
// the instrument for driving the count across the 2^64 boundary.
func chainMemo(joinLevels int) *memo.Memo {
	q := algebra.NewQuery()
	m := memo.New(q)
	prev := m.NewGroup(memo.GroupJoin, algebra.SetOf(0))
	m.AddExpr(prev, memo.Expr{Op: memo.TableScan})
	m.AddExpr(prev, memo.Expr{Op: memo.IndexScan})
	for i := 1; i < joinLevels; i++ {
		g := m.NewGroup(memo.GroupJoin, algebra.SetOf(0))
		m.AddExpr(g, memo.Expr{Op: memo.HashJoin, Children: []*memo.Group{prev}})
		m.AddExpr(g, memo.Expr{Op: memo.MergeJoin, Children: []*memo.Group{prev}})
		prev = g
	}
	root := m.NewGroup(memo.GroupRoot, algebra.SetOf(0))
	m.AddExpr(root, memo.Expr{Op: memo.HashJoin, Children: []*memo.Group{prev}})
	m.AddExpr(root, memo.Expr{Op: memo.MergeJoin, Children: []*memo.Group{prev}})
	return m
}

// TestOverflowBoundary proves the uint64/wide switch happens at exactly
// the right size: a 2^63-plan chain runs on uint64, the 2^64-plan chain
// one level deeper overflows the checked counting and moves to the wide
// tier — where counting, sampling, and rank round trips still work.
func TestOverflowBoundary(t *testing.T) {
	// 62 join levels: N = 2^63, the largest power of two below 2^64.
	fits, err := Prepare(chainMemo(62))
	if err != nil {
		t.Fatal(err)
	}
	one := big.NewInt(1)
	want := new(big.Int).Lsh(one, 63)
	if fits.Count().Cmp(want) != 0 {
		t.Fatalf("chain count = %s, want 2^63", fits.Count())
	}
	if fits.Arithmetic() != "uint64" {
		t.Fatal("2^63-plan space should fit uint64")
	}
	if !fits.Count().IsUint64() || fits.Count().Uint64() != 1<<63 {
		t.Fatalf("Count = %s; want 2^63 as a uint64", fits.Count())
	}
	// Round-trip the extremes of the uint64 regime.
	for _, r := range []uint64{0, 1<<63 - 1, 1 << 62} {
		p, err := fits.UnrankInto(r, nil)
		if err != nil {
			t.Fatalf("UnrankInto(%d): %v", r, err)
		}
		back, err := fits.Rank(p)
		if err != nil || !back.IsUint64() || back.Uint64() != r {
			t.Fatalf("Rank(UnrankInto(%d)) = %v, %v", r, back, err)
		}
	}

	// 63 join levels: N = 2^64, one past uint64. Counting must move to
	// the wide tier, the uint64 entry points must refuse, and the wide
	// tier must keep the bijection working across the boundary.
	over, err := Prepare(chainMemo(63))
	if err != nil {
		t.Fatal(err)
	}
	want = new(big.Int).Lsh(one, 64)
	if over.Count().Cmp(want) != 0 {
		t.Fatalf("chain count = %s, want 2^64", over.Count())
	}
	if over.Count().IsUint64() || over.Arithmetic() != "wide" {
		t.Fatalf("2^64-plan space: count fits uint64 or tier %s is not wide", over.Arithmetic())
	}
	if _, err := over.UnrankInto(0, nil); err == nil {
		t.Fatal("UnrankInto succeeded on the wide tier")
	}
	smp, err := over.NewSampler(5)
	if err != nil {
		t.Fatal(err)
	}
	if smp.Fast() {
		t.Fatal("sampler claims fast path on an overflowing space")
	}
	if err := smp.SampleRanks(make([]uint64, 1)); err == nil {
		t.Fatal("SampleRanks succeeded on the wide tier")
	}
	if _, err := over.All(); err == nil {
		t.Fatal("All succeeded on a space beyond uint64")
	}
	// Ranks straddling 2^64-1: the largest uint64 rank and the first
	// rank beyond uint64 must both unrank and round-trip.
	for _, r := range []*big.Int{
		big.NewInt(0),
		new(big.Int).SetUint64(math.MaxUint64),
		new(big.Int).Lsh(one, 63),
		new(big.Int).Sub(want, one), // 2^64 - 1 ... the last rank
	} {
		p, err := over.Unrank(r)
		if err != nil {
			t.Fatalf("wide Unrank(%s): %v", r, err)
		}
		back, err := over.Rank(p)
		if err != nil || back.Cmp(r) != 0 {
			t.Fatalf("wide Rank(Unrank(%s)) = %s, %v", r, back, err)
		}
	}
	// Sampling draws two words per attempt; ranks stay in range.
	for i := 0; i < 50; i++ {
		r := smp.NextRank()
		if r.Sign() < 0 || r.Cmp(over.Count()) >= 0 {
			t.Fatalf("wide-tier sample %s out of range", r)
		}
	}
}

// TestSampleRanksMatchesNextRank: the batched draw is the same stream
// as repeated single draws.
func TestSampleRanksMatchesNextRank(t *testing.T) {
	s, _ := prepared(t, starQuery)
	a, err := s.NewSampler(31)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.NewSampler(31)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]uint64, 256)
	if err := a.SampleRanks(dst); err != nil {
		t.Fatal(err)
	}
	for i, r := range dst {
		if single := b.NextRank(); !single.IsUint64() || single.Uint64() != r {
			t.Fatalf("batch draw %d = %d, single draw = %s", i, r, single)
		}
	}
	// Each draws the same stream and materializes the same plans as
	// one-by-one unranking.
	c, err := s.NewSampler(31)
	if err != nil {
		t.Fatal(err)
	}
	err = c.Each(32, nil, func(i int, rank []uint64, p *plan.Node) error {
		if r, _ := wideToU64(rank); r != dst[i] {
			t.Fatalf("Each draw %d = %d, batch draw = %d", i, r, dst[i])
		}
		q, err := s.UnrankInto(dst[i], nil)
		if err != nil {
			return err
		}
		if p.Digest() != q.Digest() {
			t.Fatalf("Each plan %d differs", i)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// chiSquaredThreshold approximates the 0.999 quantile of the
// chi-squared distribution with dof degrees of freedom
// (Wilson-Hilferty), the rejection bound for the uniformity tests.
func chiSquaredThreshold(dof float64) float64 {
	const z = 3.09 // 0.999 normal quantile
	h := 2.0 / (9.0 * dof)
	x := 1.0 - h + z*math.Sqrt(h)
	return dof * x * x * x
}

// enumerateDigests returns the digest of every plan of an enumerable
// space, indexed by rank.
func enumerateDigests(t *testing.T, s *Space) []string {
	t.Helper()
	var digestOf []string
	err := s.Enumerate(func(r *big.Int, p *plan.Node) bool {
		if r.Int64() != int64(len(digestOf)) {
			t.Fatalf("Enumerate yielded rank %s at position %d", r, len(digestOf))
		}
		digestOf = append(digestOf, p.Digest())
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return digestOf
}

// TestSamplerUniformityAgainstEnumeration is the statistical
// goodness-of-fit satellite: on spaces small enough to enumerate, the
// frequency of each exhaustively enumerated plan among sampler draws
// must pass a chi-squared test at the 0.999 level. The seed is fixed,
// so the test is deterministic.
func TestSamplerUniformityAgainstEnumeration(t *testing.T) {
	cases := []struct {
		name string
		s    *Space
	}{
		{"fixture", func() *Space {
			s, err := Prepare(fixture.New().Memo)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}()},
	}
	if s, _ := prepared(t, "SELECT v1 FROM fact, d1 WHERE f1 = k1"); s.Count().IsInt64() && s.Count().Int64() <= 10000 {
		cases = append(cases, struct {
			name string
			s    *Space
		}{"star_small", s})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.s.Arithmetic() != "uint64" || !tc.s.Count().IsUint64() {
				t.Fatal("uniformity test needs the uint64 path")
			}
			n := int(tc.s.Count().Uint64())
			// Ground truth: the digest of every plan, by rank, from
			// exhaustive enumeration.
			digestOf := enumerateDigests(t, tc.s)

			draws := 40 * n
			if draws < 20000 {
				draws = 20000
			}
			smp, err := tc.s.NewSampler(12345)
			if err != nil {
				t.Fatal(err)
			}
			counts := make(map[string]int, n)
			ranks := make([]uint64, draws)
			if err := smp.SampleRanks(ranks); err != nil {
				t.Fatal(err)
			}
			for _, r := range ranks {
				counts[digestOf[r]]++
			}
			if len(counts) != n {
				t.Fatalf("observed %d distinct plans, space holds %d", len(counts), n)
			}
			expected := float64(draws) / float64(n)
			chi2 := 0.0
			for _, c := range counts {
				d := float64(c) - expected
				chi2 += d * d / expected
			}
			if limit := chiSquaredThreshold(float64(n - 1)); chi2 > limit {
				t.Errorf("chi-squared = %.1f over %d dof exceeds %.1f; sampling looks non-uniform", chi2, n-1, limit)
			}
		})
	}
}

// TestPropertyRoundTripFixtureBothPaths is the fixture half of the
// property-test satellite: ~1k production-sampled ranks must round-trip
// Rank(Unrank(r)) == r on the uint64 tier and on the oracle, with the
// same plan on both sides.
func TestPropertyRoundTripFixtureBothPaths(t *testing.T) {
	fast, ref := bothPaths(t, fixture.New().Memo)
	fs, err := fast.NewSampler(8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		r := fs.NextRank()
		p, err := fast.Unrank(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("plan %s invalid: %v", r, err)
		}
		back, err := fast.Rank(p)
		if err != nil || back.Cmp(r) != 0 {
			t.Fatalf("fast round trip %s -> %v, %v", r, back, err)
		}
		agreeWithOracle(t, fast, ref, r, nil)
	}
}
