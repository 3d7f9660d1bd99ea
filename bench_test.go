// Package repro's root benchmark harness regenerates every table and
// figure of the paper's evaluation (see EXPERIMENTS.md for the recorded
// outputs):
//
//	BenchmarkTable1          — Table 1 (E1): search space parameters of
//	                           TPC-H Q5/Q7/Q8/Q9, with and without
//	                           Cartesian products, 10,000 uniform samples
//	BenchmarkFigure4         — Figure 4 (E2): cost distribution histograms
//	                           of the lower 50% of sampled scaled costs
//	BenchmarkCounting        — E3: the paper's "counting never exceeded
//	                           one second" claim
//	BenchmarkOptimize        — full optimization (memo + winners)
//	BenchmarkRender          — plan-tree rendering (/unrank, /sample)
//	BenchmarkExecute         — the execution engine on optimal and
//	                           sampled plans
//	BenchmarkVerifySampled   — E8: the multi-plan verification harness
//	BenchmarkPruningAblation — E9: space retained by a pruning optimizer
//
// Sample sizes follow the paper (10,000) for Table 1/Figure 4; override
// with REPRO_BENCH_SAMPLES for quicker runs.
package repro

import (
	"context"
	"fmt"
	"math/big"
	"math/rand"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/experiments"
	"repro/internal/memo"
	"repro/internal/oracle"
	"repro/internal/plan"
	"repro/internal/rules"
	"repro/internal/storage"
	"repro/internal/tpch"
)

var (
	benchOnce sync.Once
	benchDB   *storage.DB
	benchErr  error
)

func benchSamples() int {
	if s := os.Getenv("REPRO_BENCH_SAMPLES"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return 10000
}

func db(tb testing.TB) *storage.DB {
	benchOnce.Do(func() {
		benchDB, benchErr = tpch.NewDB(0.001, 42)
	})
	if benchErr != nil {
		tb.Fatal(benchErr)
	}
	return benchDB
}

func prepare(tb testing.TB, query string, cross bool) *engine.Prepared {
	tb.Helper()
	sqlText, ok := tpch.Query(query)
	if !ok {
		tb.Fatalf("unknown query %s", query)
	}
	p, err := engine.New(db(tb), engine.WithCartesian(cross)).Prepare(sqlText)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// BenchmarkCounting measures the paper's Section 3.2 post-processing:
// materializing links and counting the full space (E3). The paper reports
// under one second even for large queries; per-op times here are
// milliseconds.
func BenchmarkCounting(b *testing.B) {
	for _, q := range tpch.PaperQueries() {
		for _, cross := range []bool{false, true} {
			name := q
			if cross {
				name += "_cross"
			}
			b.Run(name, func(b *testing.B) {
				p := prepare(b, q, cross)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s, err := core.Prepare(p.Opt.Memo)
					if err != nil {
						b.Fatal(err)
					}
					if s.Count().Sign() <= 0 {
						b.Fatal("empty space")
					}
				}
			})
		}
	}
}

// limbsToBigInt converts a little-endian limb rank to a big.Int for the
// oracle rows.
func limbsToBigInt(x []uint64) *big.Int {
	out := new(big.Int)
	for i := len(x) - 1; i >= 0; i-- {
		out.Lsh(out, 64)
		out.Or(out, new(big.Int).SetUint64(x[i]))
	}
	return out
}

// dualSpaces prepares one TPC-H query's uint64-tier space and builds
// the math/big reference oracle over the same memo, so the speedup
// benchmarks compare identical spaces.
func dualSpaces(tb testing.TB, q string) (*core.Space, *oracle.Oracle) {
	tb.Helper()
	p := prepare(tb, q, false)
	if p.Space.Arithmetic() != "uint64" {
		tb.Fatalf("%s space %s exceeds uint64; benchmark fixture invalid", q, p.Count())
	}
	return p.Space, oracle.New(p.Opt.Memo)
}

// BenchmarkUnrank compares the production arithmetic tiers with the
// math/big reference oracle (internal/oracle) on TPC-H-scale spaces:
// mixed-radix decomposition of pre-drawn ranks into plans. The uint64
// and wide rows reuse one arena and must run at 0 allocs/op; the /big
// rows time the oracle. Results are recorded in BENCH_core.json and
// gated by scripts/bench_diff.sh.
func BenchmarkUnrank(b *testing.B) {
	for _, q := range []string{"Q5", "Q8", "Q9"} {
		fast, ref := dualSpaces(b, q)
		smp, err := fast.NewSampler(1)
		if err != nil {
			b.Fatal(err)
		}
		ranks := make([]uint64, 1024)
		if err := smp.SampleRanks(ranks); err != nil {
			b.Fatal(err)
		}
		bigRanks := make([]*big.Int, len(ranks))
		for i, r := range ranks {
			bigRanks[i] = new(big.Int).SetUint64(r)
		}
		b.Run(q+"/uint64", func(b *testing.B) {
			var arena core.Arena
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := fast.UnrankInto(ranks[i%len(ranks)], &arena); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(q+"/big", func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ref.Unrank(bigRanks[i%len(bigRanks)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	// Q8 with Cartesian products (~2.7·10^22 plans, 75-bit ranks)
	// overflows uint64: the wide limb tier is its production path, and
	// the oracle row, exactly like the per-query /big rows above, prices
	// what the wide tier saves.
	p8 := prepare(b, "Q8", true)
	if p8.Space.Arithmetic() != "wide" {
		b.Fatalf("Q8+cross space %s on tier %s; want wide", p8.Count(), p8.Space.Arithmetic())
	}
	smp8, err := p8.Sampler(1)
	if err != nil {
		b.Fatal(err)
	}
	wideRanks := make([][]uint64, 1024)
	bigRanks8 := make([]*big.Int, len(wideRanks))
	stride := p8.Space.RankLimbs()
	flat := make([]uint64, len(wideRanks)*stride)
	if err := smp8.SampleRanksWideInto(flat, len(wideRanks)); err != nil {
		b.Fatal(err)
	}
	for i := range wideRanks {
		wideRanks[i] = core.WideNorm(flat[i*stride : (i+1)*stride])
		bigRanks8[i] = limbsToBigInt(wideRanks[i])
	}
	b.Run("Q8cross/wide", func(b *testing.B) {
		var arena core.Arena
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := p8.Space.UnrankWideInto(wideRanks[i%len(wideRanks)], &arena); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Q8cross/big", func(b *testing.B) {
		ref := oracle.New(p8.Opt.Memo)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ref.Unrank(bigRanks8[i%len(bigRanks8)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchOracleSample times the oracle's uniform sampling: a math/big
// rank draw in [0, N) plus oracle unranking.
func benchOracleSample(b *testing.B, ref *oracle.Oracle) {
	rng := rand.New(rand.NewSource(2))
	n, r := ref.Count(), new(big.Int)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ref.Unrank(r.Rand(rng, n)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSample compares full uniform sampling (rank generation +
// unranking) on the production tiers with the oracle. The production
// rows run Sampler.Each into a reused arena — the one sampling loop
// /sample and the experiments pipeline run — so one op is one drawn
// and unranked plan.
func BenchmarkSample(b *testing.B) {
	each := func(b *testing.B, smp *core.Sampler) {
		var arena core.Arena
		b.ReportAllocs()
		b.ResetTimer()
		err := smp.Each(b.N, &arena, func(int, []uint64, *plan.Node) error { return nil })
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, q := range []string{"Q5", "Q8", "Q9"} {
		fast, ref := dualSpaces(b, q)
		b.Run(q+"/uint64", func(b *testing.B) {
			smp, err := fast.NewSampler(2)
			if err != nil {
				b.Fatal(err)
			}
			each(b, smp)
		})
		b.Run(q+"/big", func(b *testing.B) { benchOracleSample(b, ref) })
	}

	// The beyond-uint64 space: wide limb sampling (the production tier)
	// vs the oracle.
	b.Run("Q8cross/wide", func(b *testing.B) {
		p := prepare(b, "Q8", true)
		if p.Space.Arithmetic() != "wide" {
			b.Fatalf("Q8+cross tier = %s; want wide", p.Space.Arithmetic())
		}
		smp, err := p.Sampler(2)
		if err != nil {
			b.Fatal(err)
		}
		each(b, smp)
	})
	b.Run("Q8cross/big", func(b *testing.B) {
		benchOracleSample(b, oracle.New(prepare(b, "Q8", true).Opt.Memo))
	})

	// The five spaces of the sample-warm service workload in turn, 1000
	// plans from each through Sampler.Each into one arena, as /sample
	// serves them: the single-space rows above keep one space's tables
	// hot in cache, here the five compete for it. One op is one plan;
	// Each's rank buffer, one per 1000 plans, stays below one
	// allocation per op. The costed row also costs every plan with
	// ScaledCostWith, which is sample-warm's loop without the wire.
	var five []*engine.Prepared
	for _, sp := range []struct {
		q     string
		cross bool
	}{{"Q5", false}, {"Q7", false}, {"Q9", false}, {"Q8", false}, {"Q8", true}} {
		five = append(five, prepare(b, sp.q, sp.cross))
	}
	fiveSpaces := func(b *testing.B, costed bool) {
		var smps []*core.Sampler
		for _, p := range five {
			smp, err := p.Space.NewSampler(2)
			if err != nil {
				b.Fatal(err)
			}
			smps = append(smps, smp)
		}
		var (
			arena   core.Arena
			costBuf plan.CostBuf
			p       *engine.Prepared
			sum     float64
		)
		yield := func(_ int, _ []uint64, pl *plan.Node) error {
			if !costed {
				return nil
			}
			sc, err := p.ScaledCostWith(pl, &costBuf)
			sum += sc
			return err
		}
		b.ReportAllocs()
		b.ResetTimer()
		for done, i := 0, 0; done < b.N; i++ {
			k := min(1000, b.N-done)
			p = five[i%len(five)]
			if err := smps[i%len(smps)].Each(k, &arena, yield); err != nil {
				b.Fatal(err)
			}
			done += k
		}
		if costed && !(sum > 0) {
			b.Fatalf("scaled costs sum to %v", sum)
		}
	}
	b.Run("five_spaces/mixed", func(b *testing.B) { fiveSpaces(b, false) })
	b.Run("five_spaces/costed", func(b *testing.B) { fiveSpaces(b, true) })
}

// BenchmarkSampleRanks measures pure rank generation on the batched
// uint64 API — the number a sampling service would quote as raw
// rank throughput.
func BenchmarkSampleRanks(b *testing.B) {
	smp, err := prepare(b, "Q9", false).Space.NewSampler(3)
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]uint64, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := smp.SampleRanks(dst); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(dst) * 8))
}

// BenchmarkRender prices plan-tree rendering, what /unrank and /sample
// with include_plans pay per plan: one op renders one of 256 seeded
// Q8+cross plans (~28 operators each), through AppendTo into a reused
// buffer (allocation-free) and through String.
func BenchmarkRender(b *testing.B) {
	smp, err := prepare(b, "Q8", true).Sampler(11)
	if err != nil {
		b.Fatal(err)
	}
	plans := make([]*plan.Node, 256)
	for i := range plans {
		if _, plans[i], err = smp.Next(); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("AppendTo", func(b *testing.B) {
		var buf []byte
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf = plans[i%len(plans)].AppendTo(buf[:0])
		}
	})
	b.Run("String", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			renderSink = plans[i%len(plans)].String()
		}
	})
}

// renderSink keeps BenchmarkRender's String calls observable.
var renderSink string

// BenchmarkOptimize measures the substrate: memo expansion, cardinality
// annotation, and winner computation.
func BenchmarkOptimize(b *testing.B) {
	e := engine.New(db(b))
	eCross := engine.New(db(b), engine.WithCartesian(true))
	for _, cfg := range []struct {
		name  string
		eng   *engine.Engine
		query string
	}{
		{"Q5", e, "Q5"},
		{"Q9", e, "Q9"},
		{"Q8_cross", eCross, "Q8"},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			sqlText, _ := tpch.Query(cfg.query)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cfg.eng.Prepare(sqlText); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPrepare prices the space cache: cold runs the full pipeline
// (parse, bind, optimize, count) on a fresh engine, whose cache is
// empty, every iteration;
// cached repeats one text, which the cache answers through its
// statement-text alias without parsing; reparse cycles through 64
// whitespace and comment variants of the same query, more than an
// entry keeps aliases for, so every op parses, renders and hashes its
// text and hits the fingerprint: the SQL front end a new text pays.
// The cold/cached ratio is the repeated-query speedup the plan-space
// service is built around (acceptance: >= 50x on a TPC-H query).
// cross10/cold is the structure-build stress row: a 10-way Cartesian
// self-join of region, whose memo holds 2^10 groups (skipped under
// -short).
func BenchmarkPrepare(b *testing.B) {
	sqlText, _ := tpch.Query("Q9")
	cold := func(b *testing.B, sqlText string, opts ...engine.Option) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e := engine.New(db(b), opts...)
			if _, err := e.Prepare(sqlText); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("Q9/cold", func(b *testing.B) { cold(b, sqlText) })
	b.Run("cross10/cold", func(b *testing.B) {
		if testing.Short() {
			b.Skip("10-way Cartesian join: ~0.3 s per cold Prepare")
		}
		cold(b, crossJoinSQL(10), engine.WithCartesian(true))
	})
	b.Run("Q9/cached", func(b *testing.B) {
		e := engine.New(db(b))
		if _, err := e.Prepare(sqlText); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p, err := e.Prepare(sqlText)
			if err != nil {
				b.Fatal(err)
			}
			if !p.Cached {
				b.Fatal("expected a cache hit")
			}
		}
	})
	b.Run("Q9/reparse", func(b *testing.B) {
		e := engine.New(db(b))
		variants := make([]string, 64)
		for i := range variants {
			variants[i] = fmt.Sprintf("-- variant %d\n%s%s", i, sqlText, strings.Repeat(" ", i%8))
		}
		if _, err := e.Prepare(sqlText); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p, err := e.Prepare(variants[i%len(variants)])
			if err != nil {
				b.Fatal(err)
			}
			if !p.Cached {
				b.Fatal("expected a cache hit")
			}
		}
		b.StopTimer()
		if st := e.Cache().Stats(); st.TextHits != 0 {
			b.Fatalf("%d of the variants were answered by their alias; want every op to parse", st.TextHits)
		}
	})
	// Cached Prepares of four queries from every P goroutine at once:
	// the contention the space cache's one lock sees under concurrent
	// repeated traffic (run with -cpu to vary P).
	b.Run("cached_parallel", func(b *testing.B) {
		e := engine.New(db(b))
		var queries []string
		for _, q := range []string{"Q3", "Q5", "Q9", "Q10"} {
			sqlText, _ := tpch.Query(q)
			if _, err := e.Prepare(sqlText); err != nil {
				b.Fatal(err)
			}
			queries = append(queries, sqlText)
		}
		b.ReportAllocs()
		b.ResetTimer()
		var next atomic.Int64
		b.RunParallel(func(pb *testing.PB) {
			i := int(next.Add(1)) // stagger the goroutines' starting queries
			for pb.Next() {
				p, err := e.Prepare(queries[i%len(queries)])
				if err != nil {
					b.Error(err)
					return
				}
				if !p.Cached {
					b.Error("expected a cache hit")
					return
				}
				i++
			}
		})
	})
}

// crossJoinSQL is an n-way Cartesian self-join of region.
func crossJoinSQL(n int) string {
	var sb strings.Builder
	sb.WriteString("SELECT r1.r_name FROM ")
	for i := 1; i <= n; i++ {
		if i > 1 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "region r%d", i)
	}
	return sb.String()
}

// BenchmarkRecost measures the overlay tier's payoff: re-costing a
// cached structure after a cost-side change (here a feedback-epoch
// bump; statistics refreshes take the same path) versus the cold
// Prepare a single-tier cache would pay. The re-cost must stay >= 10x
// faster.
func BenchmarkRecost(b *testing.B) {
	sqlText, _ := tpch.Query("Q9")
	b.Run("Q9/recost", func(b *testing.B) {
		e := engine.New(db(b))
		if _, err := e.Prepare(sqlText); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.ApplyFeedback() // bump the epoch: overlay stale, structure intact
			p, err := e.Prepare(sqlText)
			if err != nil {
				b.Fatal(err)
			}
			if !p.Cached || p.OverlayCached {
				b.Fatalf("want structure hit + overlay rebuild, got cached=%v overlay_cached=%v", p.Cached, p.OverlayCached)
			}
		}
	})
	// The same re-cost under live corrections: one execution and fold
	// leave active factors, so every re-cost turns the epoch's view into
	// relation-subset factors through the structure's feedback keys.
	b.Run("Q9/recost_feedback", func(b *testing.B) {
		e := engine.New(db(b))
		if _, err := e.Session().Execute(context.Background(), sqlText, nil, exec.Options{}); err != nil {
			b.Fatal(err)
		}
		if folded, _ := e.ApplyFeedback(); folded == 0 {
			b.Fatal("executing Q9 recorded no feedback")
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.ApplyFeedback()
			p, err := e.Prepare(sqlText)
			if err != nil {
				b.Fatal(err)
			}
			if !p.Cached || p.OverlayCached {
				b.Fatalf("want structure hit + overlay rebuild, got cached=%v overlay_cached=%v", p.Cached, p.OverlayCached)
			}
		}
	})
	b.Run("Q9/coldprepare", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e := engine.New(db(b))
			if _, err := e.Prepare(sqlText); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTable1 regenerates the paper's Table 1 (E1) and logs it.
func BenchmarkTable1(b *testing.B) {
	cfg := experiments.Config{SampleSize: benchSamples(), Seed: 1}
	e := engine.New(db(b))
	var rendered string
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1All(e, tpch.PaperQueries(), &cfg)
		if err != nil {
			b.Fatal(err)
		}
		rendered = experiments.FormatTable1(rows)
	}
	b.Log("\n" + rendered)
}

// BenchmarkFigure4 regenerates the four panels of Figure 4 (E2).
func BenchmarkFigure4(b *testing.B) {
	cfg := experiments.Config{SampleSize: benchSamples(), Seed: 1}
	e := engine.New(db(b))
	for _, q := range tpch.PaperQueries() {
		b.Run(q, func(b *testing.B) {
			var plot *experiments.Figure4Plot
			for i := 0; i < b.N; i++ {
				var err error
				plot, err = experiments.Figure4(e, q, false, 40, &cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.Log("\n" + plot.Render())
		})
	}
}

// BenchmarkExecute prices the governed execution path: the optimizer's
// plan of each query the execute-governed service workload runs (Q3,
// Q5, Q9, Q10), and on Q5 also the median-cost plan of a uniform sample
// — the "optimal vs. typical sampled plan" latency gap that motivates
// sampling-based verification running under Governor budgets.
func BenchmarkExecute(b *testing.B) {
	opts := exec.Options{Timeout: 30 * time.Second, MaxIntermediateRows: 100_000_000}
	run := func(b *testing.B, p *engine.Prepared, pl *plan.Node) {
		b.Helper()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := p.ExecuteWith(context.Background(), pl, opts)
			if err != nil {
				b.Fatal(err)
			}
			if res.Stats.Truncated {
				b.Fatalf("benchmark plan truncated: %+v", res.Stats)
			}
		}
	}
	for _, q := range []string{"Q3", "Q9", "Q10"} {
		p := prepare(b, q, false)
		b.Run(q+"/optimal", func(b *testing.B) { run(b, p, p.OptimalPlan()) })
	}

	p := prepare(b, "Q5", false)

	// Median sampled plan by scaled cost among 101 seeded draws.
	smp, err := p.Sampler(17)
	if err != nil {
		b.Fatal(err)
	}
	type draw struct {
		rank *big.Int
		cost float64
	}
	draws := make([]draw, 101)
	for i := range draws {
		r := smp.NextRank()
		pl, err := p.Unrank(r)
		if err != nil {
			b.Fatal(err)
		}
		sc, err := p.ScaledCost(pl)
		if err != nil {
			b.Fatal(err)
		}
		draws[i] = draw{rank: r, cost: sc}
	}
	sort.Slice(draws, func(i, j int) bool { return draws[i].cost < draws[j].cost })
	median := draws[len(draws)/2]
	medianPlan, err := p.Unrank(median.rank)
	if err != nil {
		b.Fatal(err)
	}

	// The only row with a merge join; the optimal Q5 and Q9 plans reach
	// the same range join through IndexNLJoin. Of the same 101 draws with
	// a merge join, this is the one whose MergeJoin operators emit the
	// most rows (9,490 of the plan's 223,067 examined), so it does real
	// work in them.
	mergeRank, _ := new(big.Int).SetString("305736079641672", 10)
	mergePlan, err := p.Unrank(mergeRank)
	if err != nil {
		b.Fatal(err)
	}
	if !slices.ContainsFunc(mergePlan.Operators(), func(e *memo.Expr) bool { return e.Op == memo.MergeJoin }) {
		b.Fatalf("Q5 plan %s has no merge join", mergeRank)
	}

	b.Run("Q5/optimal", func(b *testing.B) { run(b, p, p.OptimalPlan()) })
	b.Run("Q5/median_sampled", func(b *testing.B) {
		b.Logf("median sampled plan: rank %s, scaled cost %.2f", median.rank, median.cost)
		run(b, p, medianPlan)
	})
	b.Run("Q5/merge_sampled", func(b *testing.B) {
		b.Logf("merge-join sampled plan: rank %s", mergeRank)
		run(b, p, mergePlan)
	})

	// The sampled sweep: 40 seeded uniform ranks of each query under
	// the execute-governed workload's 16,000-row work budget, which cuts
	// most of them. internal/engine's TestSampledSweepGolden pins the
	// same plans' counters.
	type sweepPlan struct {
		p  *engine.Prepared
		pl *plan.Node
	}
	var sweep []sweepPlan
	for _, q := range []string{"Q3", "Q5", "Q9", "Q10"} {
		p := prepare(b, q, false)
		smp, err := p.Sampler(23)
		if err != nil {
			b.Fatal(err)
		}
		for range 40 {
			_, pl, err := smp.Next()
			if err != nil {
				b.Fatal(err)
			}
			sweep = append(sweep, sweepPlan{p, pl})
		}
	}
	b.Run("sweep/sampled", func(b *testing.B) {
		b.ReportAllocs()
		governed := exec.Options{MaxIntermediateRows: 16_000}
		for i := 0; i < b.N; i++ {
			for _, s := range sweep {
				if _, err := s.p.ExecuteWith(context.Background(), s.pl, governed); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkVerifySampled measures the Section 4 harness (E8): execute a
// uniform sample of plans and compare results. Each iteration prepares
// on a fresh engine, so every one times a cold Prepare.
func BenchmarkVerifySampled(b *testing.B) {
	sqlText, _ := tpch.Query("Q10")
	for i := 0; i < b.N; i++ {
		report, err := experiments.Verify(engine.New(db(b)), sqlText, 100, 5, 7)
		if err != nil {
			b.Fatal(err)
		}
		if len(report.Mismatches) != 0 {
			b.Fatalf("mismatches: %v", report.Mismatches)
		}
	}
}

// BenchmarkPruningAblation runs E9 and logs the full-vs-retained counts.
// Each iteration prepares on a fresh engine, so every one times a cold
// Prepare.
func BenchmarkPruningAblation(b *testing.B) {
	sqlText, _ := tpch.Query("Q5")
	var ab *experiments.PruningAblation
	for i := 0; i < b.N; i++ {
		var err error
		ab, err = experiments.Prune(engine.New(db(b)), sqlText, false)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log(fmt.Sprintf("Q5: full space %s plans, pruning optimizer retains %s", ab.Full, ab.Retained))
}

// BenchmarkRuleAblation quantifies how much each implementation rule
// contributes to the space: it counts Q5's plans with one rule disabled
// at a time and logs the sizes (the design-choice ablation of DESIGN.md).
func BenchmarkRuleAblation(b *testing.B) {
	sqlText, _ := tpch.Query("Q5")
	type variant struct {
		name   string
		mutate func(*rules.Config)
	}
	variants := []variant{
		{"full", func(*rules.Config) {}},
		{"no_mergejoin", func(c *rules.Config) { c.EnableMergeJoin = false }},
		{"no_hashjoin", func(c *rules.Config) { c.EnableHashJoin = false }},
		{"no_nljoin", func(c *rules.Config) { c.EnableNLJoin = false }},
		{"no_lookupjoin", func(c *rules.Config) { c.EnableIndexNLJoin = false }},
		{"no_indexscan", func(c *rules.Config) { c.EnableIndexScan = false }},
		{"no_streamagg", func(c *rules.Config) { c.EnableStreamAgg = false }},
	}
	var report strings.Builder
	for i := 0; i < b.N; i++ {
		report.Reset()
		for _, v := range variants {
			cfg := rules.Default()
			v.mutate(&cfg)
			p, err := engine.New(db(b), engine.WithRules(cfg)).Prepare(sqlText)
			if err != nil {
				b.Fatal(err)
			}
			fmt.Fprintf(&report, "%-14s %s plans\n", v.name, p.Count())
		}
	}
	b.Log("\nQ5 space size by rule ablation:\n" + report.String())
}
