package experiments

import (
	"math"
	"math/big"
	"runtime"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/storage"
	"repro/internal/tpch"
)

func bigAtLeast(n *big.Int, min int64) bool {
	return n.Cmp(big.NewInt(min)) >= 0
}

func bigInt(v int64) *big.Int { return big.NewInt(v) }

func contains(s, sub string) bool { return strings.Contains(s, sub) }

var dbCache *storage.DB

func expDB(t *testing.T) *storage.DB {
	t.Helper()
	if dbCache == nil {
		db, err := tpch.NewDB(0.0005, 42)
		if err != nil {
			t.Fatal(err)
		}
		dbCache = db
	}
	return dbCache
}

// quickCfg keeps test runtime low; the full 10k-sample runs live in the
// benchmark harness and cmd/costdist.
var quickCfg = Config{SampleSize: 400, Seed: 1}

// TestTable1Shape verifies the qualitative claims of Table 1 (E1) at a
// reduced sample size: enormous plan counts, sampled minimum close to the
// optimum, mean far above it, and a nontrivial fraction within 10x.
func TestTable1Shape(t *testing.T) {
	row, err := Table1(expDB(t), "Q5", false, &quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !bigAtLeast(row.Plans, 1_000_000) {
		t.Errorf("Q5 space %s implausibly small", row.Plans)
	}
	if row.Min < 1 {
		t.Errorf("scaled min %g below optimum", row.Min)
	}
	if row.Min > 100 {
		t.Errorf("sampled min %g too far from optimum", row.Min)
	}
	if row.Mean < row.Min || row.Max < row.Mean {
		t.Errorf("min/mean/max not ordered: %g %g %g", row.Min, row.Mean, row.Max)
	}
	if row.Mean < 10 {
		t.Errorf("mean %g suspiciously close to optimum — space should be dominated by bad plans", row.Mean)
	}
	if row.WithinTen <= 0 {
		t.Error("no sampled plans within 10x of the optimum")
	}
	if row.WithinTwo > row.WithinTen {
		t.Error("within-2x fraction exceeds within-10x")
	}
}

// TestTable1CrossLarger: the Cartesian rows of Table 1 always dominate
// the restricted rows in space size.
func TestTable1CrossLarger(t *testing.T) {
	base, err := Table1(expDB(t), "Q5", false, &quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	cross, err := Table1(expDB(t), "Q5", true, &quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	if cross.Plans.Cmp(base.Plans) <= 0 {
		t.Errorf("cross %s <= restricted %s", cross.Plans, base.Plans)
	}
}

// TestFigure4Shape (E2): the lower half of the cost distribution must be
// front-loaded — the first quarter of buckets holds more mass than the
// last quarter (the exponential-like shape of Figure 4).
func TestFigure4Shape(t *testing.T) {
	plot, err := Figure4(expDB(t), "Q5", false, 20, &quickCfg)
	if err != nil {
		t.Fatal(err)
	}
	h := plot.Hist
	n := len(h.Buckets)
	head, tail := 0, 0
	for i := 0; i < n/4; i++ {
		head += h.Buckets[i]
	}
	for i := n - n/4; i < n; i++ {
		tail += h.Buckets[i]
	}
	if head <= tail {
		t.Errorf("distribution not front-loaded: first quarter %d, last quarter %d", head, tail)
	}
	if plot.Clipped == 0 {
		t.Error("no samples clipped; Figure 4 plots only the lower half")
	}
	if h.Total+plot.Clipped != quickCfg.SampleSize {
		t.Errorf("samples unaccounted: %d + %d != %d", h.Total, plot.Clipped, quickCfg.SampleSize)
	}
}

// TestSmallQueryDistribution (E10): single-table Q6 has a tiny space —
// the "random noise" case the paper contrasts with the join queries.
func TestSmallQueryDistribution(t *testing.T) {
	q6, _ := tpch.Query("Q6")
	costs, p, err := ScaledCosts(expDB(t), q6, false, &Config{SampleSize: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Count().IsInt64() || p.Count().Int64() > 100 {
		t.Errorf("Q6 space unexpectedly large: %s", p.Count())
	}
	if len(costs) != 50 {
		t.Errorf("sampled %d costs", len(costs))
	}
	for _, c := range costs {
		if c < 1-1e-9 {
			t.Errorf("scaled cost %g below 1", c)
		}
	}
}

// TestVerifyExhaustiveAndSampled (E8).
func TestVerifyExhaustiveAndSampled(t *testing.T) {
	small := "SELECT n_name FROM nation, region WHERE n_regionkey = r_regionkey ORDER BY n_name"
	report, err := Verify(expDB(t), small, 100000, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Exhaustive {
		t.Error("small query not verified exhaustively")
	}
	if len(report.Mismatches) != 0 {
		t.Errorf("mismatches: %v", report.Mismatches)
	}
	if int64(report.Executed) != report.Plans.Int64() {
		t.Errorf("executed %d of %s", report.Executed, report.Plans)
	}

	q10, _ := tpch.Query("Q10")
	report, err = Verify(expDB(t), q10, 100, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if report.Exhaustive {
		t.Error("large query verified exhaustively?")
	}
	if report.Executed != 10 || len(report.Mismatches) != 0 {
		t.Errorf("executed=%d mismatches=%v", report.Executed, report.Mismatches)
	}
}

// TestPruneAblation (E9): the pruning optimizer retains a drastically
// smaller space.
func TestPruneAblation(t *testing.T) {
	q5, _ := tpch.Query("Q5")
	ab, err := Prune(expDB(t), q5, false)
	if err != nil {
		t.Fatal(err)
	}
	if ab.Retained.Sign() <= 0 {
		t.Error("pruned space empty")
	}
	if ab.Retained.Cmp(ab.Full) >= 0 {
		t.Errorf("pruned %s not smaller than full %s", ab.Retained, ab.Full)
	}
	// The whole point: pruning hides virtually the entire space from
	// testing. Retained should be astronomically smaller.
	ratio, _ := new(big.Float).Quo(
		new(big.Float).SetInt(ab.Retained),
		new(big.Float).SetInt(ab.Full),
	).Float64()
	if ratio > 0.001 {
		t.Errorf("pruned space is %.6g of full space; expected far smaller", ratio)
	}
}

func TestFormatTable1(t *testing.T) {
	rows := []Table1Row{
		{Query: "Q5", Plans: bigInt(123456), Min: 1.1, Mean: 17098, Max: 4034135, WithinTwo: 0.0047, WithinTen: 0.1215},
		{Query: "Q5", Cross: true, Plans: bigInt(999999), Min: 1.2, Mean: 105418, Max: 1287700, WithinTwo: 0.0029, WithinTen: 0.057},
	}
	s := FormatTable1(rows)
	for _, want := range []string{"Q5", "123456", "Cartesian", "0.47%", "12.15%"} {
		if !contains(s, want) {
			t.Errorf("FormatTable1 missing %q:\n%s", want, s)
		}
	}
}

// TestScaledCostsIndependentOfGOMAXPROCS: an experiment samples one
// seeded stream — the one the space's Sampler yields for that seed — so
// its scaled costs are bit-identical whatever GOMAXPROCS is.
func TestScaledCostsIndependentOfGOMAXPROCS(t *testing.T) {
	q5, _ := tpch.Query("Q5")
	run := func(procs int) ([]float64, *engine.Prepared) {
		t.Helper()
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		cfg := Config{SampleSize: 300, Seed: 9}
		costs, p, err := ScaledCosts(expDB(t), q5, false, &cfg)
		if err != nil {
			t.Fatal(err)
		}
		return costs, p
	}
	a, p := run(1)
	b, _ := run(4)
	if len(a) != 300 || len(b) != 300 {
		t.Fatalf("sample sizes %d and %d, want 300", len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("draw %d: %g at GOMAXPROCS 1, %g at GOMAXPROCS 4", i, a[i], b[i])
		}
	}

	// The stream is the sampler's own for seed 9, draw by draw.
	smp, err := p.Sampler(9)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		_, pl, err := smp.Next()
		if err != nil {
			t.Fatal(err)
		}
		sc, err := p.ScaledCost(pl)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(sc) != math.Float64bits(a[i]) {
			t.Fatalf("draw %d: experiment cost %g, sampler stream %g", i, a[i], sc)
		}
	}
}

// TestConfigReusesEngineAndCache: repeated Table1/Figure4 calls through
// one config share a single engine and space cache — the second call
// for a (query, cross) pair must be served from the cache.
func TestConfigReusesEngineAndCache(t *testing.T) {
	cfg := Config{SampleSize: 50, Seed: 1}
	first, err := Table1(expDB(t), "Q7", false, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Error("first Table1 call reported a cache hit")
	}
	second, err := Table1(expDB(t), "Q7", false, &cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Error("second Table1 call re-optimized instead of hitting the cache")
	}
	if first.Plans.Cmp(second.Plans) != 0 {
		t.Errorf("counts differ across cache hit: %s vs %s", first.Plans, second.Plans)
	}
	// Same config, same seed: identical sampled summary.
	if first.Mean != second.Mean || first.Max != second.Max {
		t.Errorf("sampled summary differs across cache hit: %+v vs %+v", first, second)
	}
	// Figure4 over the same pair rides the same cached space.
	if _, err := Figure4(expDB(t), "Q7", false, 10, &cfg); err != nil {
		t.Fatal(err)
	}
	st := cfg.sessionFor(expDB(t), false).Engine().Cache().Stats()
	if st.Misses != 1 {
		t.Errorf("cache misses = %d, want 1 (one cold build for Q7)", st.Misses)
	}
	if st.Hits < 2 {
		t.Errorf("cache hits = %d, want >= 2", st.Hits)
	}
}
