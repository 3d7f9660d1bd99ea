// Package experiments reproduces the paper's evaluation: Table 1 (search
// space parameters of TPC-H join queries under uniform sampling), Figure
// 4 (cost distribution histograms of the lower 50% of sampled costs), and
// the Section 4 verification methodology (execute many plans of one
// query and require identical results).
package experiments

import (
	"fmt"
	"math/big"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/histogram"
	"repro/internal/memo"
	"repro/internal/plan"
	"repro/internal/rules"
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

	// Cached reports that the space came out of the engine's
	// fingerprint cache; CountTime is then the cache-hit latency, not a
	// cold parse+optimize+count.
	Cached     bool
	CountTime  time.Duration
	SampleTime time.Duration
}

// Config parameterizes the experiments. Every experiment prepares on
// the engine its caller passes, so calls that share an engine share its
// fingerprint-keyed space cache: repeated Table1 and Figure4 calls over
// the same query reuse the counted space instead of re-optimizing.
type Config struct {
	SampleSize int // paper: 10,000

	// Seed seeds the one sampler stream an experiment draws: the same
	// stream /sample returns for that seed, so the drawn sample
	// depends on (Seed, SampleSize) only, never on the host.
	Seed int64

	// Rules overrides the rule configuration (nil: the engine's own).
	// The Cartesian flag of each experiment is applied on top.
	Rules *rules.Config
}

// session returns a session over e under the config's rules (the
// engine's when nil), with Cartesian products allowed exactly when
// cross is set.
func (c *Config) session(e *engine.Engine, cross bool) *engine.Session {
	if c.Rules == nil {
		return e.Session(engine.WithCartesian(cross))
	}
	cfg := *c.Rules
	cfg.AllowCartesian = cross
	return e.Session(engine.WithRules(cfg))
}

// ScaledCosts prepares a query on e, samples cfg.SampleSize plans uniformly,
// and returns their costs scaled to the optimum, plus the prepared query.
func ScaledCosts(e *engine.Engine, sqlText string, cross bool, cfg *Config) ([]float64, *engine.Prepared, error) {
	p, err := cfg.session(e, cross).Prepare(sqlText)
	if err != nil {
		return nil, nil, err
	}
	costs, err := sampleScaledCosts(p, cfg)
	if err != nil {
		return nil, nil, err
	}
	return costs, p, nil
}

// sampleScaledCosts draws cfg.SampleSize uniform plans under cfg.Seed —
// the stream /sample returns for that seed — and returns their scaled
// costs in draw order. It runs the one sampling loop (Sampler.Each)
// with one reused arena and cost stack: each sampled plan is costed
// and discarded, so on the uint64 and wide tiers the loop is
// allocation-free after warm-up. All tiers see the same plans for the
// same seed.
func sampleScaledCosts(p *engine.Prepared, cfg *Config) ([]float64, error) {
	smp, err := p.Sampler(cfg.Seed)
	if err != nil {
		return nil, err
	}
	costs := make([]float64, cfg.SampleSize)
	var arena core.Arena
	var costBuf plan.CostBuf
	err = smp.Each(len(costs), &arena, func(i int, _ []uint64, pl *plan.Node) error {
		sc, err := p.ScaledCostWith(pl, &costBuf)
		costs[i] = sc
		return err
	})
	if err != nil {
		return nil, err
	}
	return costs, nil
}

// Table1 computes one row of Table 1 for a named TPC-H query on e.
func Table1(e *engine.Engine, query string, cross bool, cfg *Config) (Table1Row, error) {
	sqlText, ok := tpch.Query(query)
	if !ok {
		return Table1Row{}, fmt.Errorf("experiments: unknown query %q", query)
	}

	countStart := time.Now()
	p, err := cfg.session(e, cross).Prepare(sqlText)
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

// Table1All computes the full table: the named queries (the paper's are
// tpch.PaperQueries) without and then with Cartesian products.
func Table1All(e *engine.Engine, names []string, cfg *Config) ([]Table1Row, error) {
	var rows []Table1Row
	for _, cross := range []bool{false, true} {
		for _, q := range names {
			row, err := Table1(e, q, cross, cfg)
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

// Figure4 builds one panel on e with the given bucket count.
func Figure4(e *engine.Engine, query string, cross bool, buckets int, cfg *Config) (*Figure4Plot, error) {
	sqlText, ok := tpch.Query(query)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown query %q", query)
	}
	costs, _, err := ScaledCosts(e, sqlText, cross, cfg)
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

// Verify prepares sqlText on e under its default options and executes
// either the whole space (when it has at most maxExhaustive plans) or
// sampleSize uniformly sampled plans, and checks every result against
// the optimal plan's result with Prepared.Check (same rows within a
// float tolerance, and the ORDER BY order). Every executed plan records
// its observations in e's feedback store, as any execution on e does.
func Verify(e *engine.Engine, sqlText string, maxExhaustive int, sampleSize int, seed int64) (*VerifyReport, error) {
	p, err := e.Prepare(sqlText)
	if err != nil {
		return nil, err
	}
	reference, err := p.Execute(p.OptimalPlan())
	if err != nil {
		return nil, fmt.Errorf("experiments: executing optimal plan: %w", err)
	}
	report := &VerifyReport{Query: sqlText, Plans: p.Count()}

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
		if err := p.Check(res, reference); err != nil {
			report.Mismatches = append(report.Mismatches, fmt.Sprintf("plan %s %v", r, err))
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

// PruningAblation compares the full space against the space a pruning
// optimizer retains (experiment E9): for every reachable (group,
// ordering) context only the winner survives.
type PruningAblation struct {
	Full     *big.Int
	Retained *big.Int
}

// Prune computes the ablation for one query on e, with Cartesian
// products allowed exactly when cross is set.
func Prune(e *engine.Engine, sqlText string, cross bool) (*PruningAblation, error) {
	p, err := e.Session(engine.WithCartesian(cross)).Prepare(sqlText)
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
