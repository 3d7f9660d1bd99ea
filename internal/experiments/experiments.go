// Package experiments reproduces the paper's evaluation: Table 1 (search
// space parameters of TPC-H join queries under uniform sampling), Figure
// 4 (cost distribution histograms of the lower 50% of sampled costs), and
// the Section 4 verification methodology (execute many plans of one
// query and require identical results).
package experiments

import (
	"fmt"
	"math/big"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/histogram"
	"repro/internal/memo"
	"repro/internal/plan"
	"repro/internal/rules"
	"repro/internal/storage"
	"repro/internal/tpch"
)

// Table1Row is one line of the paper's Table 1: the space size and the
// distribution of sampled plan costs scaled to the optimizer's optimum
// (optimum = 1.0).
type Table1Row struct {
	Query     string
	Cross     bool // Cartesian products allowed (second half of the table)
	Plans     *big.Int
	Arith     string // arithmetic tier serving the space: "uint64" or "wide"
	Sample    int
	Min       float64
	Mean      float64
	Max       float64
	WithinTwo float64 // fraction of sampled plans with cost <= 2x optimum
	WithinTen float64 // fraction <= 10x optimum

	// Cached reports that the space came out of the config's shared
	// fingerprint cache; CountTime is then the cache-hit latency, not a
	// cold parse+optimize+count.
	Cached     bool
	CountTime  time.Duration
	SampleTime time.Duration
}

// Config parameterizes the experiments. Pass one *Config through a
// whole experiment run: it lazily builds one engine (and with it one
// fingerprint-keyed space cache) per database, so repeated Table1 and
// Figure4 calls over the same query reuse the counted space instead of
// re-optimizing.
type Config struct {
	SampleSize int   // paper: 10,000
	Seed       int64 // sampling seed (experiments are deterministic)

	// Workers shards sampling and plan costing. 0 picks GOMAXPROCS
	// (capped); 1 forces the sequential path. For a fixed (Seed,
	// SampleSize, Workers) the drawn sample is deterministic — worker w
	// draws an independent stream seeded core.DeriveSeed(Seed, w) — but
	// changing Workers changes which plans are drawn.
	Workers int

	// Rules overrides the rule configuration (nil: the full default
	// set). The Cartesian flag of each experiment is applied on top.
	Rules *rules.Config

	// state is created on first use and shared by every copy of this
	// config made afterwards.
	state *configState
}

type configState struct {
	mu      sync.Mutex
	engines map[*storage.DB]*engine.Engine
}

var stateInit sync.Mutex

func (c *Config) runtime() *configState {
	stateInit.Lock()
	defer stateInit.Unlock()
	if c.state == nil {
		c.state = &configState{engines: make(map[*storage.DB]*engine.Engine)}
	}
	return c.state
}

// sessionFor returns a session over the config's per-database engine:
// one engine — and one space cache — per database, however many
// (query, cross) combinations the experiment sweeps.
func (c *Config) sessionFor(db *storage.DB, cross bool) *engine.Session {
	st := c.runtime()
	st.mu.Lock()
	eng, ok := st.engines[db]
	if !ok {
		eng = engine.New(db)
		st.engines[db] = eng
	}
	st.mu.Unlock()
	if c.Rules != nil {
		cfg := *c.Rules
		cfg.AllowCartesian = cross
		return eng.Session(engine.WithRules(cfg))
	}
	return eng.Session(engine.WithCartesian(cross))
}

// workers resolves the sharding width.
func (c *Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	w := runtime.GOMAXPROCS(0)
	if w > 8 {
		w = 8
	}
	return w
}

// DefaultConfig matches the paper's sample size.
func DefaultConfig() Config { return Config{SampleSize: 10000, Seed: 1} }

// ScaledCosts prepares a query, samples cfg.SampleSize plans uniformly,
// and returns their costs scaled to the optimum, plus the prepared query.
func ScaledCosts(db *storage.DB, sqlText string, cross bool, cfg *Config) ([]float64, *engine.Prepared, error) {
	p, err := cfg.sessionFor(db, cross).Prepare(sqlText)
	if err != nil {
		return nil, nil, err
	}
	costs, err := sampleScaledCosts(p, cfg)
	if err != nil {
		return nil, nil, err
	}
	return costs, p, nil
}

// sampleScaledCosts draws cfg.SampleSize uniform plans and costs them,
// sharded across cfg.workers() workers. Each worker owns a sampler
// seeded by core.DeriveSeed, an arena, and a cost stack, and fills a
// fixed region of the output, so the result is reproducible for a given
// (seed, size, workers) regardless of scheduling — and no per-plan
// allocation survives any worker's loop.
func sampleScaledCosts(p *engine.Prepared, cfg *Config) ([]float64, error) {
	k := cfg.SampleSize
	w := cfg.workers()
	if w > k {
		w = k
	}
	if w <= 1 {
		costs := make([]float64, k)
		return costs, sampleRegion(p, cfg.Seed, costs)
	}
	costs := make([]float64, k)
	errs := make([]error, w)
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		lo := i * k / w
		hi := (i + 1) * k / w
		wg.Add(1)
		go func(i, lo, hi int) {
			defer wg.Done()
			errs[i] = sampleRegion(p, core.DeriveSeed(cfg.Seed, i), costs[lo:hi])
		}(i, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return costs, nil
}

// sampleRegion fills out with scaled costs of uniform plans drawn under
// seed, through the one sampling loop (Sampler.Each) with one reused
// arena and cost stack: each sampled plan is costed and discarded, so
// on the uint64 and wide tiers the loop is allocation-free after
// warm-up. All tiers see the same plans for the same seed.
func sampleRegion(p *engine.Prepared, seed int64, out []float64) error {
	smp, err := p.Sampler(seed)
	if err != nil {
		return err
	}
	var arena core.Arena
	var costBuf plan.CostBuf
	return smp.Each(len(out), &arena, func(i int, _ []uint64, pl *plan.Node) error {
		sc, err := p.ScaledCostWith(pl, &costBuf)
		out[i] = sc
		return err
	})
}

// Table1 computes one row of Table 1 for a named TPC-H query.
func Table1(db *storage.DB, query string, cross bool, cfg *Config) (Table1Row, error) {
	sqlText, ok := tpch.Query(query)
	if !ok {
		return Table1Row{}, fmt.Errorf("experiments: unknown query %q", query)
	}

	countStart := time.Now()
	p, err := cfg.sessionFor(db, cross).Prepare(sqlText)
	if err != nil {
		return Table1Row{}, err
	}
	countTime := time.Since(countStart)

	sampleStart := time.Now()
	costs, err := sampleScaledCosts(p, cfg)
	if err != nil {
		return Table1Row{}, err
	}
	sampleTime := time.Since(sampleStart)

	sum := histogram.Summarize(costs)
	return Table1Row{
		Query:      query,
		Cross:      cross,
		Plans:      p.Count(),
		Arith:      p.Space.Arithmetic(),
		Sample:     cfg.SampleSize,
		Min:        sum.Min,
		Mean:       sum.Mean,
		Max:        sum.Max,
		WithinTwo:  sum.WithinTwo,
		WithinTen:  sum.WithinTen,
		Cached:     p.Cached,
		CountTime:  countTime,
		SampleTime: sampleTime,
	}, nil
}

// Table1All computes the full table: the paper's four queries without and
// then with Cartesian products.
func Table1All(db *storage.DB, cfg *Config) ([]Table1Row, error) {
	var rows []Table1Row
	for _, cross := range []bool{false, true} {
		for _, q := range tpch.PaperQueries() {
			row, err := Table1(db, q, cross, cfg)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s (cross=%v): %w", q, cross, err)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// FormatTable1 renders rows in the paper's layout: Query, #Plans, Min,
// Mean, Max scaled costs and the percentage of plans within 2x and 10x of
// the optimum, for a sample of the configured size.
func FormatTable1(rows []Table1Row) string {
	var sb strings.Builder
	sb.WriteString("                                          In a sample\n")
	sb.WriteString("Query  #Plans                Min    Mean        Max          costs<=2  costs<=10\n")
	for i, r := range rows {
		if i > 0 && rows[i-1].Cross != r.Cross {
			sb.WriteString("---- including Cartesian products ----\n")
		}
		fmt.Fprintf(&sb, "%-6s %-20s  %-6.2f %-11.4g %-12.4g %6.2f%%  %6.2f%%\n",
			r.Query, r.Plans.String(), r.Min, r.Mean, r.Max,
			100*r.WithinTwo, 100*r.WithinTen)
	}
	sb.WriteString("scaled costs: factor of the optimizer's optimum (optimum = 1.0)\n")
	return sb.String()
}

// Figure4Plot is one panel of Figure 4: the histogram of the lower 50% of
// sampled scaled costs for one query.
type Figure4Plot struct {
	Query string
	Cross bool
	Hist  *histogram.Histogram
	// Clipped is the number of samples above the median (the paper clips
	// the right tail "as its displaying would otherwise cause the
	// interesting part of the distribution to be compressed").
	Clipped int
}

// Figure4 builds one panel with the given bucket count.
func Figure4(db *storage.DB, query string, cross bool, buckets int, cfg *Config) (*Figure4Plot, error) {
	sqlText, ok := tpch.Query(query)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown query %q", query)
	}
	costs, _, err := ScaledCosts(db, sqlText, cross, cfg)
	if err != nil {
		return nil, err
	}
	lower := histogram.LowerHalf(costs)
	lo, hi := lower[0], lower[len(lower)-1]
	if !(hi > lo) {
		hi = lo + 1
	}
	h, err := histogram.New(lo, hi, buckets)
	if err != nil {
		return nil, err
	}
	for _, c := range lower {
		h.Add(c)
	}
	return &Figure4Plot{Query: query, Cross: cross, Hist: h, Clipped: len(costs) - len(lower)}, nil
}

// Render draws the panel as text.
func (f *Figure4Plot) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "TPC-H %s (cross=%v) — scaled costs, lower 50%% of %d samples (right tail of %d clipped)\n",
		f.Query, f.Cross, f.Hist.Total+f.Clipped, f.Clipped)
	sb.WriteString(f.Hist.Render(60))
	return sb.String()
}

// VerifyReport summarizes a Section 4 verification run over one query:
// how many plans were executed and whether every result matched the
// optimizer plan's result.
type VerifyReport struct {
	Query      string
	Plans      *big.Int
	Executed   int
	Exhaustive bool
	Mismatches []string // plan ranks whose results differed
}

// Verify executes either the whole space (when it has at most maxExhaustive
// plans) or sampleSize uniformly sampled plans, and compares every result
// to the optimal plan's result with a float tolerance.
func Verify(db *storage.DB, sqlText string, maxExhaustive int, sampleSize int, seed int64) (*VerifyReport, error) {
	e := engine.New(db)
	p, err := e.Prepare(sqlText)
	if err != nil {
		return nil, err
	}
	reference, err := p.Execute(p.OptimalPlan())
	if err != nil {
		return nil, fmt.Errorf("experiments: executing optimal plan: %w", err)
	}
	report := &VerifyReport{Query: sqlText, Plans: p.Count()}
	keyPos, desc, checkOrder := p.OutputOrdering()

	check := func(r *big.Int, pl *plan.Node) error {
		if err := pl.Validate(); err != nil {
			report.Mismatches = append(report.Mismatches, fmt.Sprintf("plan %s invalid: %v", r, err))
			return nil
		}
		res, err := p.Execute(pl)
		if err != nil {
			report.Mismatches = append(report.Mismatches, fmt.Sprintf("plan %s failed: %v", r, err))
			return nil
		}
		if !res.Equivalent(reference, 1e-9) {
			report.Mismatches = append(report.Mismatches, fmt.Sprintf("plan %s produced different rows", r))
		}
		// Every plan of an ORDER BY query must also deliver the order —
		// regardless of whether it sorts at the root or relies on an
		// index, merge join, or enforcer below.
		if checkOrder {
			if err := res.CheckOrdered(keyPos, desc); err != nil {
				report.Mismatches = append(report.Mismatches, fmt.Sprintf("plan %s order violation: %v", r, err))
			}
		}
		report.Executed++
		return nil
	}

	if p.Count().IsInt64() && p.Count().Int64() <= int64(maxExhaustive) {
		report.Exhaustive = true
		err = p.Space.Enumerate(func(r *big.Int, pl *plan.Node) bool {
			return check(r, pl) == nil
		})
		if err != nil {
			return nil, err
		}
		return report, nil
	}

	smp, err := p.Sampler(seed)
	if err != nil {
		return nil, err
	}
	for i := 0; i < sampleSize; i++ {
		r, pl, err := smp.Next()
		if err != nil {
			return nil, err
		}
		if err := check(r, pl); err != nil {
			return nil, err
		}
	}
	return report, nil
}

// CountOnly prepares a query and reports just the space size and the
// counting time (experiment E3: "counting never exceeded 1 second").
func CountOnly(db *storage.DB, sqlText string, cross bool) (*big.Int, time.Duration, error) {
	e := engine.New(db, engine.WithCartesian(cross))
	start := time.Now()
	p, err := e.Prepare(sqlText)
	if err != nil {
		return nil, 0, err
	}
	return p.Count(), time.Since(start), nil
}

// PruningAblation compares the full space against the space a pruning
// optimizer retains (experiment E9): for every reachable (group,
// ordering) context only the winner survives.
type PruningAblation struct {
	Full     *big.Int
	Retained *big.Int
}

// Prune computes the ablation for one query.
func Prune(db *storage.DB, sqlText string, cross bool) (*PruningAblation, error) {
	e := engine.New(db, engine.WithCartesian(cross))
	p, err := e.Prepare(sqlText)
	if err != nil {
		return nil, err
	}
	retained := p.Opt.RetainedExprs()
	pruned, err := core.Prepare(p.Opt.Memo, core.WithFilter(func(ex *memo.Expr) bool { return retained[ex] }))
	if err != nil {
		return nil, err
	}
	return &PruningAblation{Full: p.Count(), Retained: pruned.Count()}, nil
}
