// Package opt is the optimizer driver, split along the line the paper's
// counting machinery implies: the *structure* of the search space (the
// MEMO expanded by internal/rules) depends only on the query shape, the
// schema, and the rule configuration, while *costing* (cardinalities,
// per-operator costs, and the winner computation — "for every group we
// keep track of the best physical operator for each set of physical
// properties") depends additionally on cost parameters, statistics, and
// feedback corrections. BuildStructure produces the former;
// Structure.Cost attaches the latter as an immutable overlay
// (cost.Tables) without mutating the shared memo, so any number of
// costings — different parameters, different statistics, different
// feedback epochs — can coexist over one counted structure.
package opt

import (
	"fmt"
	"sync"

	"repro/internal/algebra"
	"repro/internal/cost"
	"repro/internal/memo"
	"repro/internal/plan"
	"repro/internal/rules"
)

// Options configures an optimization run.
type Options struct {
	Rules  rules.Config
	Params cost.Params
}

// DefaultOptions returns the full rule set with default cost parameters.
func DefaultOptions() Options {
	return Options{Rules: rules.Default(), Params: cost.Default()}
}

// Structure is the costless half of an optimization: the bound query
// and the expanded MEMO, plus the lazily built costing skeleton (the
// ordering-context layout of the winner search, which depends only on
// the memo). It is immutable once built and safe to share across any
// number of concurrent costings — the skeleton is built exactly once,
// so re-costing a cached structure skips all of the context analysis.
type Structure struct {
	Query *algebra.Query
	Memo  *memo.Memo

	skOnce sync.Once
	sk     *skeleton
}

// BuildStructure expands the search space for q under the given rule
// configuration, with no costing.
func BuildStructure(q *algebra.Query, cfg rules.Config) (*Structure, error) {
	m, err := rules.BuildMemo(q, cfg)
	if err != nil {
		return nil, err
	}
	return &Structure{Query: q, Memo: m}, nil
}

// skeletonOf returns the structure's costing skeleton, building it on
// first use.
func (s *Structure) skeletonOf() *skeleton {
	s.skOnce.Do(func() { s.sk = buildSkeleton(s.Memo) })
	return s.sk
}

// Costing is the cost overlay over one structure: per-group estimated
// cardinalities and per-operator local costs (cost.Tables), the
// model bound to them (which carries the estimator and its parameters),
// and the optimal plan. A Costing is immutable after Structure.Cost
// returns and safe for concurrent readers.
type Costing struct {
	Model  *cost.Model
	Tables *cost.Tables

	Best     *plan.Node
	BestCost float64

	Memo *memo.Memo // the structure's memo, shared and never written
	sol  *solution
}

// Cost computes an overlay for the structure under the given parameters
// and (optionally nil) feedback correction factors: fill the
// cardinality table, fill the local-cost table, then solve for the
// cheapest plan per (group, ordering context) and extract the optimum
// from the root group. The shared memo is only read, never written, and
// the structure's context skeleton is reused across costings.
func (s *Structure) Cost(params cost.Params, corr cost.Correction) (*Costing, error) {
	m, sk := s.Memo, s.skeletonOf()
	est := cost.NewEstimator(s.Query, params)
	if corr != nil {
		est.SetCorrection(corr)
	}
	tab := cost.NewTables(m)
	fillCards(m, est, tab)
	model := cost.NewModelWith(est, tab)
	if err := model.FillLocals(m); err != nil {
		return nil, err
	}

	c := &Costing{
		Model: model, Tables: tab,
		Memo: m,
		sol: &solution{
			sk:     sk,
			cost:   make([]float64, sk.maxExpr+1),
			ok:     make([]bool, sk.maxExpr+1),
			node:   make([]*plan.Node, sk.maxExpr+1),
			win:    make([][]*memo.Expr, len(sk.ctxs)),
			neBest: make([]*memo.Expr, len(sk.ctxs)),
		},
	}
	if err := c.solve(); err != nil {
		return nil, err
	}
	best := c.sol.win[m.Root.ID][0]
	if best == nil {
		return nil, fmt.Errorf("opt: no plan found for root group")
	}
	c.Best = c.nodeOf(best)
	c.BestCost = c.sol.cost[best.ID]
	return c, nil
}

// fillCards sets every group's estimated output cardinality in the
// overlay table. Cards are properties of the group (relation subset plus
// operator layer), so every alternative in a group shares them — the
// invariant the MEMO's costing relies on.
func fillCards(m *memo.Memo, est *cost.Estimator, tab *cost.Tables) {
	for _, g := range m.Groups {
		var card float64
		switch g.Kind {
		case memo.GroupScan:
			card = est.BaseCard(g.RelSet.First())
		case memo.GroupJoin:
			card = est.SetCard(g.RelSet)
		case memo.GroupAgg:
			card = est.AggCard(est.SetCard(g.RelSet))
		case memo.GroupRoot:
			// The root projects its child without changing cardinality.
			if m.Query.HasAgg() {
				card = est.AggCard(est.SetCard(g.RelSet))
			} else {
				card = est.SetCard(g.RelSet)
			}
		}
		tab.Cards[g.ID] = card
	}
}
