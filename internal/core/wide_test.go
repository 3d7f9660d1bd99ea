package core

import (
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/fixture"
	"repro/internal/plan"
)

// WithWideArithmetic forces the wide limb tier even when the space fits
// uint64, so tests can exercise the wide decomposer, sampler, and
// selection machinery on spaces small enough to enumerate exhaustively.
func WithWideArithmetic() Option {
	return func(c *config) { c.forceWide = true }
}

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
		if got, want := bigFromLimbs(wideIncInPlace(work)), new(big.Int).Add(bx, big.NewInt(1)); got.Cmp(want) != 0 {
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

// TestTriPathDifferentialFixture runs the differential suite on the
// paper fixture across both tiers and the oracle: identical counts,
// identical plans for every rank, bit-identical sampler streams, and
// agreeing round-trip ranks. The uint64 tier is pinned by the golden
// tests, the wide tier is the production path for large spaces, and
// internal/oracle is the independent reference.
func TestTriPathDifferentialFixture(t *testing.T) {
	m := fixture.New().Memo
	fast, ref := bothPaths(t, m)
	wide, err := Prepare(m, WithWideArithmetic())
	if err != nil {
		t.Fatal(err)
	}
	if fast.Arithmetic() != "uint64" {
		t.Fatalf("fast tier = %s", fast.Arithmetic())
	}
	if wide.Arithmetic() != "wide" {
		t.Fatalf("forced wide tier = %s", wide.Arithmetic())
	}
	if fast.Count().Cmp(wide.Count()) != 0 {
		t.Fatalf("counts differ: %s / %s", fast.Count(), wide.Count())
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
		if pw.Digest() != pf.Digest() {
			t.Fatalf("rank %d: digests differ across tiers", r)
		}
		agreeWithOracle(t, wide, ref, new(big.Int).SetUint64(r), nil)
		agreeWithOracle(t, fast, ref, new(big.Int).SetUint64(r), nil)
	}

	// Sampler streams: bit-identical across both tiers, and every
	// wide-tier draw agrees with the oracle.
	fs, _ := fast.NewSampler(99)
	ws, _ := wide.NewSampler(99)
	if !fs.Fast() || fs.Wide() || !ws.Wide() || ws.Fast() {
		t.Fatalf("sampler tiers wrong: fast=%v/%v wide=%v/%v", fs.Fast(), fs.Wide(), ws.Fast(), ws.Wide())
	}
	const draws = 500
	rf := make([]uint64, draws)
	if err := fs.SampleRanks(rf); err != nil {
		t.Fatal(err)
	}
	rw := make([]uint64, draws*wide.RankLimbs())
	if err := ws.SampleRanksWideInto(rw, draws); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < draws; i++ {
		if rw[i] != rf[i] {
			t.Fatalf("draw %d: fast %d, wide %d", i, rf[i], rw[i])
		}
		agreeWithOracle(t, wide, ref, new(big.Int).SetUint64(rw[i]), &arena)
	}
}

// wideSampled draws k production ranks from s's wide sampler.
func wideSampled(t *testing.T, s *Space, seed int64, k int) []*big.Int {
	t.Helper()
	smp, err := s.NewSampler(seed)
	if err != nil {
		t.Fatal(err)
	}
	stride := s.RankLimbs()
	buf := make([]uint64, k*stride)
	if err := smp.SampleRanksWideInto(buf, k); err != nil {
		t.Fatal(err)
	}
	out := make([]*big.Int, k)
	for i := range out {
		out[i] = bigFromLimbs(WideNorm(buf[i*stride : (i+1)*stride]))
	}
	return out
}

// TestWideBoundary64: the 2^64-plan chain memo sits exactly one past
// uint64 — it must land on the wide tier and agree with the oracle on
// ranks straddling the boundary (2^64-1 is the last rank) and on
// production-sampled ranks.
func TestWideBoundary64(t *testing.T) {
	w, ref := bothPaths(t, chainMemo(63))
	if w.Arithmetic() != "wide" {
		t.Fatalf("2^64-plan space tier = %s, want wide", w.Arithmetic())
	}
	one := big.NewInt(1)
	want := new(big.Int).Lsh(one, 64)
	if w.Count().Cmp(want) != 0 {
		t.Fatalf("count %s, want 2^64", w.Count())
	}
	if w.RankLimbs() != 2 {
		t.Fatalf("RankLimbs = %d, want 2", w.RankLimbs())
	}
	ranks := append([]*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		new(big.Int).SetUint64(1<<64 - 1),
		new(big.Int).Lsh(one, 63),
		new(big.Int).Sub(want, one), // 2^64 - 1: the last rank, 2 limbs
	}, wideSampled(t, w, 5, 200)...)
	var arena Arena
	for _, r := range ranks {
		agreeWithOracle(t, w, ref, r, &arena)
	}
	if _, err := w.Unrank(want); err == nil {
		t.Fatal("rank N unranked; want out-of-range error")
	}
}

// TestWideBoundary128: the 2^128-plan chain crosses the two-limb/
// three-limb boundary, so the decomposer's multi-limb divisors (chain
// bases reach 2^127) and the 128-bit rank straddle both get exercised
// against the oracle.
func TestWideBoundary128(t *testing.T) {
	w, ref := bothPaths(t, chainMemo(127))
	one := big.NewInt(1)
	want := new(big.Int).Lsh(one, 128)
	if w.Count().Cmp(want) != 0 {
		t.Fatalf("count %s, want 2^128", w.Count())
	}
	ranks := append([]*big.Int{
		big.NewInt(0),
		new(big.Int).SetUint64(1<<64 - 1),
		new(big.Int).Lsh(one, 64),
		new(big.Int).Lsh(one, 127),
		new(big.Int).Sub(want, one),
	}, wideSampled(t, w, 23, 50)...)
	var arena Arena
	for _, r := range ranks {
		agreeWithOracle(t, w, ref, r, &arena)
	}
}

// TestWideDeepMemo is the 128-limb instrument: a 2^8191-plan chain
// whose counts, bases, and ranks occupy 128 limbs. Counting must stay
// exact (the count is a single bit at position 8191) and both extremes
// plus production-sampled ranks must agree with the oracle.
func TestWideDeepMemo(t *testing.T) {
	if testing.Short() {
		t.Skip("deep memo round trips are slow under -short")
	}
	w, ref := bothPaths(t, chainMemo(8190))
	one := big.NewInt(1)
	want := new(big.Int).Lsh(one, 8191)
	if w.Count().Cmp(want) != 0 {
		t.Fatalf("count has bit length %d, want 8192", w.Count().BitLen())
	}
	if w.RankLimbs() != 128 {
		t.Fatalf("RankLimbs = %d, want 128", w.RankLimbs())
	}
	ranks := append([]*big.Int{
		big.NewInt(0),
		new(big.Int).Sub(want, one),
	}, wideSampled(t, w, 41, 3)...)
	var arena Arena
	for _, r := range ranks {
		agreeWithOracle(t, w, ref, r, &arena)
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
	digestOf := enumerateDigests(t, s)

	draws := 40 * n
	if draws < 20000 {
		draws = 20000
	}
	smp, err := s.NewSampler(12345)
	if err != nil {
		t.Fatal(err)
	}
	var arena Arena
	counts := make(map[string]int, n)
	err = smp.Each(draws, &arena, func(_ int, _ []uint64, p *plan.Node) error {
		counts[p.Digest()]++
		return nil
	})
	if err != nil {
		t.Fatal(err)
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
