package core

import (
	"math"
	"math/big"
	"testing"

	"repro/internal/algebra"
	"repro/internal/fixture"
	"repro/internal/memo"
	"repro/internal/plan"
)

// bothPaths prepares the same memo twice: once normally (uint64 fast
// path when it fits) and once forced onto big.Int arithmetic.
func bothPaths(t *testing.T, m *memo.Memo) (fast, forced *Space) {
	t.Helper()
	fast, err := Prepare(m)
	if err != nil {
		t.Fatal(err)
	}
	forced, err = Prepare(m, WithBigArithmetic())
	if err != nil {
		t.Fatal(err)
	}
	if forced.FitsUint64() {
		t.Fatal("WithBigArithmetic space claims the uint64 path")
	}
	return fast, forced
}

// TestDualPathDifferentialFixture runs the full differential suite on
// the paper fixture: identical counts, bit-identical exhaustive
// enumeration, bit-identical sample sequences, and agreeing ranks on
// both arithmetic paths.
func TestDualPathDifferentialFixture(t *testing.T) {
	fast, forced := bothPaths(t, fixture.New().Memo)
	if !fast.FitsUint64() {
		t.Fatal("25-plan fixture space should fit uint64")
	}
	if n, ok := fast.CountUint64(); !ok || n != 25 {
		t.Fatalf("CountUint64 = %d, %v; want 25, true", n, ok)
	}
	if fast.Count().Cmp(forced.Count()) != 0 {
		t.Fatalf("counts differ: %s vs %s", fast.Count(), forced.Count())
	}

	// Exhaustive: every rank unranks to the same plan on both paths,
	// and all four unranking entry points agree.
	var arena Arena
	for r := uint64(0); r < 25; r++ {
		pf, err := fast.UnrankInto(r, nil)
		if err != nil {
			t.Fatalf("UnrankInto(%d): %v", r, err)
		}
		pb, err := forced.Unrank(new(big.Int).SetUint64(r))
		if err != nil {
			t.Fatalf("big Unrank(%d): %v", r, err)
		}
		if pf.Digest() != pb.Digest() {
			t.Fatalf("rank %d: fast plan %s, big plan %s", r, pf.Digest(), pb.Digest())
		}
		pa, err := fast.UnrankInto(r, &arena)
		if err != nil {
			t.Fatalf("UnrankInto(%d): %v", r, err)
		}
		if pa.Digest() != pf.Digest() {
			t.Fatalf("rank %d: arena plan differs from fresh plan", r)
		}
		back, err := fast.Rank64(pf)
		if err != nil || back != r {
			t.Fatalf("Rank64(UnrankInto(%d)) = %d, %v", r, back, err)
		}
		bigBack, err := forced.Rank(pb)
		if err != nil || !bigBack.IsUint64() || bigBack.Uint64() != r {
			t.Fatalf("big Rank(Unrank(%d)) = %s, %v", r, bigBack, err)
		}
	}

	// Sample sequences: same seed, bit-identical ranks on both paths.
	fs, err := fast.NewSampler(99)
	if err != nil {
		t.Fatal(err)
	}
	bs, err := forced.NewSampler(99)
	if err != nil {
		t.Fatal(err)
	}
	if !fs.Fast() || bs.Fast() {
		t.Fatalf("sampler paths wrong: fast=%v forced=%v", fs.Fast(), bs.Fast())
	}
	for i := 0; i < 500; i++ {
		rf := fs.NextRank64()
		rb := bs.NextRank()
		if !rb.IsUint64() || rb.Uint64() != rf {
			t.Fatalf("draw %d: fast rank %d, big rank %s", i, rf, rb)
		}
	}

	// SampleParallel must agree across paths too (worker streams are
	// seed-derived, not path-derived).
	pf, err := fast.SampleParallel(7, 40, 4)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := forced.SampleParallel(7, 40, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pf {
		if pf[i].Digest() != pb[i].Digest() {
			t.Fatalf("SampleParallel diverges at %d", i)
		}
	}
}

// TestDualPathDifferentialStar repeats the differential checks on the
// optimizer-built star-join spaces, including one far too large to
// enumerate: counts, sampled plans, and round-trip ranks must be
// identical on both paths for ~1k random ranks.
func TestDualPathDifferentialStar(t *testing.T) {
	for _, query := range []string{
		"SELECT v1 FROM fact, d1 WHERE f1 = k1",
		starQuery,
	} {
		s, _ := prepared(t, query)
		forced, err := Prepare(s.Memo, WithBigArithmetic())
		if err != nil {
			t.Fatal(err)
		}
		if !s.FitsUint64() {
			t.Fatalf("star space %s should fit uint64", s.Count())
		}
		if n, ok := s.CountUint64(); !ok || new(big.Int).SetUint64(n).Cmp(s.Count()) != 0 {
			t.Fatalf("CountUint64 = %d, %v; want %s", n, ok, s.Count())
		}
		if s.Count().Cmp(forced.Count()) != 0 {
			t.Fatalf("counts differ: %s vs %s", s.Count(), forced.Count())
		}

		iters := 1000
		if testing.Short() {
			iters = 200
		}
		fs, err := s.NewSampler(4242)
		if err != nil {
			t.Fatal(err)
		}
		bs, err := forced.NewSampler(4242)
		if err != nil {
			t.Fatal(err)
		}
		var arena Arena
		for i := 0; i < iters; i++ {
			r := fs.NextRank64()
			rb := bs.NextRank()
			if !rb.IsUint64() || rb.Uint64() != r {
				t.Fatalf("draw %d: fast %d, big %s", i, r, rb)
			}
			pf, err := s.UnrankInto(r, &arena)
			if err != nil {
				t.Fatalf("UnrankInto(%d): %v", r, err)
			}
			pb, err := forced.Unrank(rb)
			if err != nil {
				t.Fatalf("big Unrank(%s): %v", rb, err)
			}
			if pf.Digest() != pb.Digest() {
				t.Fatalf("rank %d: plans differ across paths", r)
			}
			back, err := s.Rank64(pf)
			if err != nil || back != r {
				t.Fatalf("Rank64 round trip: %d -> %d, %v", r, back, err)
			}
			bigBack, err := forced.Rank(pb)
			if err != nil || !bigBack.IsUint64() || bigBack.Uint64() != r {
				t.Fatalf("big Rank round trip: %d -> %s, %v", r, bigBack, err)
			}
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

// TestOverflowBoundary proves the uint64/big.Int fallback triggers at
// exactly the right size: a 2^63-plan chain runs on uint64, the
// 2^64-plan chain one level deeper overflows the checked counting and
// falls back to big.Int — where counting, sampling, and rank round
// trips still work.
func TestOverflowBoundary(t *testing.T) {
	// 62 join levels: N = 2^63, the largest power of two below 2^64.
	fits, err := Prepare(chainMemo(62))
	if err != nil {
		t.Fatal(err)
	}
	want := new(big.Int).Lsh(bigOne, 63)
	if fits.Count().Cmp(want) != 0 {
		t.Fatalf("chain count = %s, want 2^63", fits.Count())
	}
	if !fits.FitsUint64() {
		t.Fatal("2^63-plan space should fit uint64")
	}
	if n, ok := fits.CountUint64(); !ok || n != 1<<63 {
		t.Fatalf("CountUint64 = %d, %v; want 2^63", n, ok)
	}
	// Round-trip the extremes of the uint64 regime.
	for _, r := range []uint64{0, 1<<63 - 1, 1 << 62} {
		p, err := fits.UnrankInto(r, nil)
		if err != nil {
			t.Fatalf("UnrankInto(%d): %v", r, err)
		}
		back, err := fits.Rank64(p)
		if err != nil || back != r {
			t.Fatalf("Rank64(UnrankInto(%d)) = %d, %v", r, back, err)
		}
	}

	// 63 join levels: N = 2^64, one past uint64. Counting must fall
	// back, the fast entry points must refuse, and the big.Int path
	// must keep the bijection working across the boundary.
	over, err := Prepare(chainMemo(63))
	if err != nil {
		t.Fatal(err)
	}
	want = new(big.Int).Lsh(bigOne, 64)
	if over.Count().Cmp(want) != 0 {
		t.Fatalf("chain count = %s, want 2^64", over.Count())
	}
	if over.FitsUint64() {
		t.Fatal("2^64-plan space claims to fit uint64")
	}
	if _, ok := over.CountUint64(); ok {
		t.Fatal("CountUint64 ok on an overflowing space")
	}
	if _, err := over.UnrankInto(0, nil); err == nil {
		t.Fatal("UnrankInto succeeded on the big.Int path")
	}
	if _, err := over.NewIter(); err == nil {
		t.Fatal("NewIter succeeded on the big.Int path")
	}
	smp, err := over.NewSampler(5)
	if err != nil {
		t.Fatal(err)
	}
	if smp.Fast() {
		t.Fatal("sampler claims fast path on an overflowing space")
	}
	if err := smp.SampleRanks(make([]uint64, 1)); err == nil {
		t.Fatal("SampleRanks succeeded on the big.Int path")
	}
	// Ranks straddling 2^64-1: the largest uint64 rank and the first
	// rank beyond uint64 must both unrank and round-trip on big.Int.
	for _, r := range []*big.Int{
		big.NewInt(0),
		new(big.Int).SetUint64(math.MaxUint64),
		new(big.Int).Lsh(bigOne, 63),
		new(big.Int).Sub(want, bigOne), // 2^64 - 1 ... the last rank
	} {
		p, err := over.Unrank(r)
		if err != nil {
			t.Fatalf("big Unrank(%s): %v", r, err)
		}
		back, err := over.Rank(p)
		if err != nil || back.Cmp(r) != 0 {
			t.Fatalf("big Rank(Unrank(%s)) = %s, %v", r, back, err)
		}
	}
	// Sampling draws two words per attempt; ranks stay in range.
	for i := 0; i < 50; i++ {
		r := smp.NextRank()
		if r.Sign() < 0 || r.Cmp(over.Count()) >= 0 {
			t.Fatalf("big-path sample %s out of range", r)
		}
	}
}

// TestIterMatchesEnumerate checks the pull iterator against Enumerate
// on a small optimizer-built space: same ranks, same plans, and the
// arena reuse does not corrupt earlier decompositions.
func TestIterMatchesEnumerate(t *testing.T) {
	s, _ := prepared(t, "SELECT v1 FROM fact, d1 WHERE f1 = k1")
	want := make(map[uint64]string)
	err := s.Enumerate(func(r *big.Int, p *plan.Node) bool {
		want[r.Uint64()] = p.Digest()
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	it, err := s.NewIter()
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for it.Next() {
		if d := it.Plan().Digest(); d != want[it.Rank()] {
			t.Fatalf("iterator rank %d: digest %s, want %s", it.Rank(), d, want[it.Rank()])
		}
		seen++
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if seen != len(want) {
		t.Fatalf("iterator yielded %d plans, Enumerate %d", seen, len(want))
	}

	// Range iterator slices the same sequence.
	rit, err := s.NewRangeIter(3, 7)
	if err != nil {
		t.Fatal(err)
	}
	var ranks []uint64
	for rit.Next() {
		ranks = append(ranks, rit.Rank())
	}
	if len(ranks) != 4 || ranks[0] != 3 || ranks[3] != 6 {
		t.Fatalf("range iterator ranks = %v", ranks)
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
		if single := b.NextRank64(); single != r {
			t.Fatalf("batch draw %d = %d, single draw = %d", i, r, single)
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
			n64, ok := tc.s.CountUint64()
			if !ok {
				t.Fatal("uniformity test needs the uint64 path")
			}
			n := int(n64)
			// Ground truth: the digest of every plan, by rank, from
			// exhaustive enumeration through the pull iterator.
			digestOf := make([]string, n)
			it, err := tc.s.NewIter()
			if err != nil {
				t.Fatal(err)
			}
			for it.Next() {
				digestOf[it.Rank()] = it.Plan().Digest()
			}
			if err := it.Err(); err != nil {
				t.Fatal(err)
			}

			draws := 40 * n
			if draws < 20000 {
				draws = 20000
			}
			smp, err := tc.s.NewSampler(12345)
			if err != nil {
				t.Fatal(err)
			}
			counts := make(map[string]int, n)
			for i := 0; i < draws; i++ {
				counts[digestOf[smp.NextRank64()]]++
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
// property-test satellite: ~1k random ranks must round-trip
// Rank(Unrank(r)) == r on each arithmetic path independently.
func TestPropertyRoundTripFixtureBothPaths(t *testing.T) {
	fast, forced := bothPaths(t, fixture.New().Memo)
	fs, err := fast.NewSampler(8)
	if err != nil {
		t.Fatal(err)
	}
	bs, err := forced.NewSampler(1009)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		r := fs.NextRank64()
		p, err := fast.UnrankInto(r, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("plan %d invalid: %v", r, err)
		}
		back, err := fast.Rank64(p)
		if err != nil || back != r {
			t.Fatalf("fast round trip %d -> %d, %v", r, back, err)
		}

		rb := bs.NextRank()
		pb, err := forced.Unrank(rb)
		if err != nil {
			t.Fatal(err)
		}
		bigBack, err := forced.Rank(pb)
		if err != nil || bigBack.Cmp(rb) != 0 {
			t.Fatalf("big round trip %s -> %s, %v", rb, bigBack, err)
		}
	}
}
