package core

import (
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/fixture"
)

// bigFromLimbs is the test-side reference conversion.
func bigFromLimbs(x []uint64) *big.Int { return limbsToBig(x) }

// randLimbs draws n canonical limbs with a set top limb.
func randLimbs(rng *rand.Rand, n int) []uint64 {
	if n == 0 {
		return nil
	}
	x := make([]uint64, n)
	for i := range x {
		x[i] = rng.Uint64()
	}
	for x[n-1] == 0 {
		x[n-1] = rng.Uint64()
	}
	return x
}

// TestWideDivModAgainstBig is the deterministic half of the divmod
// differential (the fuzzer is the adversarial half): quotient and
// remainder must match math/big across limb widths, including the
// Knuth-D corner cases (saturated quotient digits, add-back).
func TestWideDivModAgainstBig(t *testing.T) {
	max64 := ^uint64(0)
	cases := [][2][]uint64{
		{{5}, {3}},
		{{max64}, {1}},
		{{max64, max64}, {max64}},
		{{0, 1}, {max64}},                   // 2^64 / (2^64-1): qhat saturation
		{{max64, max64, max64}, {1, max64}}, // add-back territory
		{{0, 0, 1}, {1, 1}},                 // 2^128 / (2^64+1)
		{{max64, max64, max64, max64}, {max64, max64}},
		{{1, 0, 0, 1}, {0, 1}},                // zero middle limbs
		{{42}, {42}},                          // u == v
		{{41}, {42}},                          // u < v
		{{0, 0, 0, 0, 0, 0, 0, 1}, {0, 0, 1}}, // 2^448 / 2^128
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 4000; i++ {
		un := 1 + rng.Intn(6)
		vn := 1 + rng.Intn(4)
		cases = append(cases, [2][]uint64{randLimbs(rng, un), randLimbs(rng, vn)})
	}
	// A 130-limb dividend by multi-limb divisors: the deep-memo regime.
	for i := 0; i < 20; i++ {
		cases = append(cases, [2][]uint64{randLimbs(rng, 130), randLimbs(rng, 1+rng.Intn(129))})
	}
	var a WideArena
	for _, c := range cases {
		u, v := wideNorm(c[0]), wideNorm(c[1])
		if len(v) == 0 {
			continue
		}
		a.Reset()
		q, r := wideDivMod(u, v, &a)
		wantQ, wantR := new(big.Int).QuoRem(bigFromLimbs(u), bigFromLimbs(v), new(big.Int))
		if bigFromLimbs(q).Cmp(wantQ) != 0 || bigFromLimbs(r).Cmp(wantR) != 0 {
			t.Fatalf("divmod(%s, %s) = (%s, %s); want (%s, %s)",
				bigFromLimbs(u), bigFromLimbs(v), bigFromLimbs(q), bigFromLimbs(r), wantQ, wantR)
		}
		// u must be untouched (callers keep using it).
		if bigFromLimbs(u).Cmp(bigFromLimbs(wideNorm(c[0]))) != 0 {
			t.Fatal("wideDivMod mutated its dividend")
		}
	}
}

// TestWideHelpersAgainstBig: add, sub, mul, inc, comparison, and the
// allocation-free decimal formatter all agree with math/big.
func TestWideHelpersAgainstBig(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var a WideArena
	for i := 0; i < 3000; i++ {
		x := wideNorm(randLimbs(rng, rng.Intn(5)))
		y := wideNorm(randLimbs(rng, rng.Intn(5)))
		bx, by := bigFromLimbs(x), bigFromLimbs(y)

		if got, want := bigFromLimbs(wideAdd(x, y)), new(big.Int).Add(bx, by); got.Cmp(want) != 0 {
			t.Fatalf("add(%s, %s) = %s, want %s", bx, by, got, want)
		}
		if got, want := bigFromLimbs(wideMul(x, y)), new(big.Int).Mul(bx, by); got.Cmp(want) != 0 {
			t.Fatalf("mul(%s, %s) = %s, want %s", bx, by, got, want)
		}
		if got, want := wideCmp(x, y), bx.Cmp(by); got != want {
			t.Fatalf("cmp(%s, %s) = %d, want %d", bx, by, got, want)
		}
		if wideCmp(x, y) >= 0 {
			work := append([]uint64(nil), x...)
			if got, want := bigFromLimbs(wideSubInPlace(work, y)), new(big.Int).Sub(bx, by); got.Cmp(want) != 0 {
				t.Fatalf("sub(%s, %s) = %s, want %s", bx, by, got, want)
			}
		}
		work := append([]uint64(nil), x...)
		if got, want := bigFromLimbs(wideIncInPlace(work)), new(big.Int).Add(bx, bigOne); got.Cmp(want) != 0 {
			t.Fatalf("inc(%s) = %s, want %s", bx, got, want)
		}
		a.Reset()
		if got, want := string(AppendWideDecimal(nil, x, &a)), bx.String(); got != want {
			t.Fatalf("decimal(%v) = %q, want %q", x, got, want)
		}
		back := bigToLimbs(bx, nil)
		if wideCmp(back, x) != 0 {
			t.Fatalf("bigToLimbs(limbsToBig(%v)) = %v", x, back)
		}
	}
	// Carry ripple across every limb.
	allOnes := []uint64{^uint64(0), ^uint64(0), ^uint64(0)}
	if got := wideIncInPlace(append([]uint64(nil), allOnes...)); len(got) != 4 || got[3] != 1 {
		t.Fatalf("inc(2^192-1) = %v", got)
	}
}

// TestWideArenaStability: Alloc returns zeroed memory whose backing
// never moves as the arena grows, and Reset recycles without
// invalidating the high-water chunk size.
func TestWideArenaStability(t *testing.T) {
	var a WideArena
	first := a.Alloc(10)
	for i := range first {
		first[i] = uint64(i + 1)
	}
	for i := 0; i < 100; i++ {
		a.Alloc(97) // force chunk growth
	}
	for i := range first {
		if first[i] != uint64(i+1) {
			t.Fatal("arena growth moved an earlier allocation")
		}
	}
	a.Reset()
	s := a.Alloc(5)
	for _, v := range s {
		if v != 0 {
			t.Fatal("Alloc after Reset returned dirty memory")
		}
	}
	a.Reset()
	if got := a.Alloc(3); len(got) != 3 {
		t.Fatalf("Alloc(3) len = %d", len(got))
	}
}

// TestSelectByPrefix64Hybrid: the galloping/branch-free hybrid agrees
// with the linear reference on every in-range rank, across list shapes
// including zero-count candidates (equal adjacent prefix entries).
func TestSelectByPrefix64Hybrid(t *testing.T) {
	ref := func(prefix []uint64, r uint64) int {
		k := 0
		for k+1 < len(prefix)-1 && prefix[k+1] <= r {
			k++
		}
		return k
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(40)
		prefix := make([]uint64, n+1)
		for i := 1; i <= n; i++ {
			step := uint64(rng.Intn(5)) // zeros allowed: empty candidates
			if trial%3 == 0 {
				step = uint64(rng.Intn(1000))
			}
			prefix[i] = prefix[i-1] + step
		}
		total := prefix[n]
		if total == 0 {
			continue
		}
		for r := uint64(0); r < total; r++ {
			if got, want := selectByPrefix64(prefix, r), ref(prefix, r); got != want {
				t.Fatalf("prefix %v rank %d: hybrid %d, linear %d", prefix, r, got, want)
			}
		}
		// The wide analogue must agree on the same table.
		wp := make([][]uint64, len(prefix))
		for i, p := range prefix {
			wp[i] = wideFromU64(p)
		}
		for r := uint64(0); r < total; r++ {
			if got, want := selectByPrefixWide(wp, wideFromU64(r)), ref(prefix, r); got != want {
				t.Fatalf("wide prefix %v rank %d: hybrid %d, linear %d", prefix, r, got, want)
			}
		}
	}
}

// TestTriPathDifferentialFixture runs the full differential suite on
// the paper fixture across all three tiers: identical counts, identical
// plans for every rank, bit-identical sampler streams, and agreeing
// round-trip ranks. The uint64 tier is the PR-3 behavior (golden), the
// big tier is the oracle, and the wide tier is the new production path
// for large spaces.
func TestTriPathDifferentialFixture(t *testing.T) {
	m := fixture.New().Memo
	fast, err := Prepare(m)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := Prepare(m, WithWideArithmetic())
	if err != nil {
		t.Fatal(err)
	}
	forced, err := Prepare(m, WithBigArithmetic())
	if err != nil {
		t.Fatal(err)
	}
	if !fast.FitsUint64() || fast.Arithmetic() != "uint64" {
		t.Fatalf("fast tier = %s", fast.Arithmetic())
	}
	if wide.FitsUint64() || !wide.Wide() || wide.Arithmetic() != "wide" {
		t.Fatalf("forced wide tier = %s", wide.Arithmetic())
	}
	if forced.Arithmetic() != "big" {
		t.Fatalf("forced big tier = %s", forced.Arithmetic())
	}
	if fast.Count().Cmp(wide.Count()) != 0 || fast.Count().Cmp(forced.Count()) != 0 {
		t.Fatalf("counts differ: %s / %s / %s", fast.Count(), wide.Count(), forced.Count())
	}
	if wide.RankLimbs() != 1 {
		t.Fatalf("RankLimbs = %d for a 25-plan space", wide.RankLimbs())
	}

	// Exhaustive: every rank produces the same plan on every tier and
	// round-trips through the wide Rank.
	var arena Arena
	rankBuf := make([]uint64, 1)
	for r := uint64(0); r < 25; r++ {
		pf, err := fast.UnrankInto(r, nil)
		if err != nil {
			t.Fatalf("UnrankInto(%d): %v", r, err)
		}
		rankBuf[0] = r
		pw, err := wide.UnrankWideInto(wideNorm(rankBuf), &arena)
		if err != nil {
			t.Fatalf("UnrankWideInto(%d): %v", r, err)
		}
		pb, err := forced.Unrank(new(big.Int).SetUint64(r))
		if err != nil {
			t.Fatalf("big Unrank(%d): %v", r, err)
		}
		if pw.Digest() != pf.Digest() || pw.Digest() != pb.Digest() {
			t.Fatalf("rank %d: digests differ across tiers", r)
		}
		// Fresh-allocation wide path and the big.Int front door agree.
		pw2, err := wide.Unrank(new(big.Int).SetUint64(r))
		if err != nil || pw2.Digest() != pf.Digest() {
			t.Fatalf("wide Unrank(%d) = %v, %v", r, pw2, err)
		}
		back, err := wide.Rank(pw2)
		if err != nil || !back.IsUint64() || back.Uint64() != r {
			t.Fatalf("wide Rank(Unrank(%d)) = %s, %v", r, back, err)
		}
	}

	// Sampler streams: bit-identical across all three tiers.
	fs, _ := fast.NewSampler(99)
	ws, _ := wide.NewSampler(99)
	bs, _ := forced.NewSampler(99)
	if !fs.Fast() || !ws.Wide() || bs.Fast() || bs.Wide() {
		t.Fatalf("sampler tiers wrong: fast=%v wide=%v big fast=%v wide=%v", fs.Fast(), ws.Wide(), bs.Fast(), bs.Wide())
	}
	buf := make([]uint64, wide.RankLimbs())
	for i := 0; i < 500; i++ {
		rf := fs.NextRank64()
		rw := ws.NextRankInto(buf)
		rb := bs.NextRank()
		v, ok := wideToU64(rw)
		if !ok || v != rf || !rb.IsUint64() || rb.Uint64() != rf {
			t.Fatalf("draw %d: fast %d, wide %s, big %s", i, rf, bigFromLimbs(rw), rb)
		}
	}

	// SampleParallel agrees across tiers (worker streams are
	// seed-derived, not tier-derived).
	pf, err := fast.SampleParallel(7, 40, 4)
	if err != nil {
		t.Fatal(err)
	}
	pw, err := wide.SampleParallel(7, 40, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pf {
		if pf[i].Digest() != pw[i].Digest() {
			t.Fatalf("SampleParallel diverges at %d", i)
		}
	}
}

// TestWideBoundary64: the 2^64-plan chain memo sits exactly one past
// uint64 — it must land on the wide tier and agree with the big oracle
// on ranks straddling the boundary (2^64-1 is the last rank).
func TestWideBoundary64(t *testing.T) {
	m := chainMemo(63)
	w, err := Prepare(m)
	if err != nil {
		t.Fatal(err)
	}
	if !w.Wide() {
		t.Fatalf("2^64-plan space tier = %s, want wide", w.Arithmetic())
	}
	oracle, err := Prepare(m, WithBigArithmetic())
	if err != nil {
		t.Fatal(err)
	}
	want := new(big.Int).Lsh(bigOne, 64)
	if w.Count().Cmp(want) != 0 || oracle.Count().Cmp(want) != 0 {
		t.Fatalf("counts: wide %s, big %s, want 2^64", w.Count(), oracle.Count())
	}
	if w.RankLimbs() != 2 {
		t.Fatalf("RankLimbs = %d, want 2", w.RankLimbs())
	}
	var arena Arena
	for _, r := range []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		new(big.Int).SetUint64(1<<64 - 1),
		new(big.Int).Lsh(bigOne, 63),
		new(big.Int).Sub(want, bigOne), // 2^64 - 1: the last rank, 2 limbs
	} {
		pw, err := w.UnrankBigInto(r, &arena)
		if err != nil {
			t.Fatalf("wide Unrank(%s): %v", r, err)
		}
		pb, err := oracle.Unrank(r)
		if err != nil {
			t.Fatalf("big Unrank(%s): %v", r, err)
		}
		if pw.Digest() != pb.Digest() {
			t.Fatalf("rank %s: wide and big disagree", r)
		}
		back, err := w.Rank(pw)
		if err != nil || back.Cmp(r) != 0 {
			t.Fatalf("wide Rank round trip %s -> %s, %v", r, back, err)
		}
	}
	if _, err := w.Unrank(want); err == nil {
		t.Fatal("rank N unranked; want out-of-range error")
	}
	// Identical seeded streams, wide vs big oracle.
	ws, _ := w.NewSampler(5)
	bs, _ := oracle.NewSampler(5)
	buf := make([]uint64, w.RankLimbs())
	for i := 0; i < 200; i++ {
		rw := ws.NextRankInto(buf)
		rb := bs.NextRank()
		if bigFromLimbs(rw).Cmp(rb) != 0 {
			t.Fatalf("draw %d: wide %s, big %s", i, bigFromLimbs(rw), rb)
		}
	}
}

// TestWideBoundary128: the 2^128-plan chain crosses the two-limb/
// three-limb boundary, so the decomposer's multi-limb divisors (chain
// bases reach 2^127) and the 128-bit rank straddle both get exercised
// against the oracle.
func TestWideBoundary128(t *testing.T) {
	m := chainMemo(127)
	w, err := Prepare(m)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := Prepare(m, WithBigArithmetic())
	if err != nil {
		t.Fatal(err)
	}
	want := new(big.Int).Lsh(bigOne, 128)
	if w.Count().Cmp(want) != 0 {
		t.Fatalf("count %s, want 2^128", w.Count())
	}
	ranks := []*big.Int{
		big.NewInt(0),
		new(big.Int).SetUint64(1<<64 - 1),
		new(big.Int).Lsh(bigOne, 64),
		new(big.Int).Lsh(bigOne, 127),
		new(big.Int).Sub(want, bigOne),
	}
	// Plus seeded random ranks drawn from the oracle's own sampler.
	bs, _ := oracle.NewSampler(23)
	for i := 0; i < 50; i++ {
		ranks = append(ranks, bs.NextRank())
	}
	var arena Arena
	for _, r := range ranks {
		pw, err := w.UnrankBigInto(r, &arena)
		if err != nil {
			t.Fatalf("wide Unrank(%s): %v", r, err)
		}
		pb, err := oracle.Unrank(r)
		if err != nil {
			t.Fatalf("big Unrank(%s): %v", r, err)
		}
		if pw.Digest() != pb.Digest() {
			t.Fatalf("rank %s: wide and big disagree", r)
		}
		back, err := w.Rank(pw)
		if err != nil || back.Cmp(r) != 0 {
			t.Fatalf("wide Rank round trip %s -> %s, %v", r, back, err)
		}
	}
}

// TestWideDeepMemo is the 128-limb instrument: a 2^8191-plan chain
// whose counts, bases, and ranks occupy 128 limbs. Counting must stay
// exact (the count is a single bit at position 8191) and random oracle
// ranks must round-trip through the wide decomposer.
func TestWideDeepMemo(t *testing.T) {
	if testing.Short() {
		t.Skip("deep memo round trips are slow under -short")
	}
	m := chainMemo(8190)
	w, err := Prepare(m)
	if err != nil {
		t.Fatal(err)
	}
	want := new(big.Int).Lsh(bigOne, 8191)
	if w.Count().Cmp(want) != 0 {
		t.Fatalf("count has bit length %d, want 8192", w.Count().BitLen())
	}
	if w.RankLimbs() != 128 {
		t.Fatalf("RankLimbs = %d, want 128", w.RankLimbs())
	}
	// The oracle space doubles memory; build it once and compare a few
	// ranks including both extremes.
	oracle, err := Prepare(m, WithBigArithmetic())
	if err != nil {
		t.Fatal(err)
	}
	ranks := []*big.Int{
		big.NewInt(0),
		new(big.Int).Sub(want, bigOne),
	}
	bs, _ := oracle.NewSampler(41)
	for i := 0; i < 3; i++ {
		ranks = append(ranks, bs.NextRank())
	}
	var arena Arena
	for _, r := range ranks {
		pw, err := w.UnrankBigInto(r, &arena)
		if err != nil {
			t.Fatalf("wide Unrank: %v", err)
		}
		pb, err := oracle.Unrank(r)
		if err != nil {
			t.Fatalf("big Unrank: %v", err)
		}
		if pw.Digest() != pb.Digest() {
			t.Fatal("wide and big disagree on a 128-limb rank")
		}
		back, err := w.Rank(pw)
		if err != nil || back.Cmp(r) != 0 {
			t.Fatalf("round trip failed: %v", err)
		}
	}
}

// TestWideSamplerUniformity is the chi-squared satellite for the wide
// tier: on the fixture space forced onto limb arithmetic, sampled plan
// frequencies must match exhaustive enumeration at the 0.999 level —
// and the draw stream must stay bit-identical to the uint64 tier, which
// the PR-3 golden tests pin.
func TestWideSamplerUniformity(t *testing.T) {
	s, err := Prepare(fixture.New().Memo, WithWideArithmetic())
	if err != nil {
		t.Fatal(err)
	}
	n64, ok := wideToU64(s.totalW)
	if !ok {
		t.Fatal("fixture space should be enumerable")
	}
	n := int(n64)
	digestOf := make([]string, n)
	it, err := s.NewIter()
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
	smp, err := s.NewSampler(12345)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]uint64, s.RankLimbs())
	var arena Arena
	counts := make(map[string]int, n)
	for i := 0; i < draws; i++ {
		r := smp.NextRankInto(buf)
		p, err := s.UnrankWideInto(r, &arena)
		if err != nil {
			t.Fatal(err)
		}
		counts[p.Digest()]++
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
		t.Errorf("chi-squared = %.1f over %d dof exceeds %.1f; wide sampling looks non-uniform", chi2, n-1, limit)
	}
	for _, d := range digestOf {
		if counts[d] == 0 {
			t.Fatal("an enumerated plan was never sampled")
		}
	}
}

// TestMagicDivAgainstHardware: the precomputed reciprocal must agree
// with the hardware division for every divisor/dividend shape the
// decomposer can meet — powers of two, d-1/d/d+1 neighborhoods, the
// extremes, and a large random sweep.
func TestMagicDivAgainstHardware(t *testing.T) {
	check := func(d, n uint64) {
		t.Helper()
		if got, want := newMagicDiv(d).quo(n), n/d; got != want {
			t.Fatalf("magic %d / %d = %d, want %d", n, d, got, want)
		}
	}
	divisors := []uint64{1, 2, 3, 5, 7, 10, 100, 1 << 31, 1<<31 + 1, 1<<32 - 1, 1 << 32,
		1<<63 - 1, 1 << 63, 1<<63 + 1, ^uint64(0) - 1, ^uint64(0)}
	for k := uint(0); k < 64; k++ {
		divisors = append(divisors, uint64(1)<<k, uint64(1)<<k+1)
		if k > 0 {
			divisors = append(divisors, uint64(1)<<k-1)
		}
	}
	dividends := []uint64{0, 1, 2, 1<<32 - 1, 1 << 32, 1<<63 - 1, 1 << 63, ^uint64(0) - 1, ^uint64(0)}
	for _, d := range divisors {
		if d == 0 {
			continue
		}
		for _, n := range dividends {
			check(d, n)
		}
		check(d, d-1)
		check(d, d)
		if d+1 != 0 {
			check(d, d+1)
		}
	}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 200000; i++ {
		d := rng.Uint64()
		for d == 0 {
			d = rng.Uint64()
		}
		if i%3 == 0 {
			d %= 1 << 20 // small bases dominate real slots
			if d == 0 {
				d = 1
			}
		}
		check(d, rng.Uint64())
	}
}
