// Package opt is the optimizer driver, split along the line the paper's
// counting machinery implies: the *structure* of the search space (the
// MEMO expanded by internal/rules) depends only on the query shape, the
// schema, and the rule configuration, while *costing* (cardinalities,
// per-operator costs, and the winner computation — "for every group we
// keep track of the best physical operator for each set of physical
// properties") depends additionally on statistics and feedback
// corrections. BuildStructure produces the former; Structure.Cost
// attaches the latter as an immutable overlay, a Costing, without
// mutating the shared memo, so any number of costings — different
// statistics, different feedback epochs — can coexist over one counted
// structure. The winner search itself is core.Space.Cheapest: a
// winner's key, (group, required ordering), is the key of the counted
// space's candidate lists, so costing folds over the same tables
// counting built.
//
// "Query shape" is exact: the memo depends only on the inputs
// rules.BuildMemo reads (rules.SameShape), which leave out literals,
// filters and aliases. So every literal variant of one query has the
// same memo up to which query its payloads point into, and the engine's
// structure cache keeps a shape index: a structure miss whose bound
// query has the shape of a resident structure copies that memo onto the
// new query (memo.Memo.CloneOnto) and shares its counted space's tables
// (core.Space.Share) instead of expanding and counting again. Its
// costing is its own, as its literals are.
package opt

import (
	"fmt"
	"math/big"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/memo"
	"repro/internal/plan"
	"repro/internal/rules"
)

// Options configures an optimization run.
type Options struct {
	Rules rules.Config
}

// DefaultOptions returns the full rule set.
func DefaultOptions() Options {
	return Options{Rules: rules.Default()}
}

// Structure is the costless half of an optimization: the bound query
// and the expanded MEMO. It is immutable once built and safe to share
// across any number of concurrent costings.
type Structure struct {
	Query *algebra.Query
	Memo  *memo.Memo
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

// Costing is the cost overlay over one structure: per-group estimated
// cardinalities and per-operator local costs (cost.Tables), the optimal
// plan and its rank. A Costing is immutable after Structure.Cost
// returns and safe for concurrent readers.
type Costing struct {
	Tables *cost.Tables

	Best     *plan.Node
	BestCost float64

	// OptimalRank is Best's plan number in the counted space, which
	// every /prepare, /explain and /execute asks for. Do not mutate it.
	OptimalRank *big.Int

	Memo *memo.Memo // the structure's memo, shared and never written
}

// Cost computes an overlay for the structure under the cost model and
// the given feedback correction factors (relation subset → factor, nil
// for none): fill the cardinality and local-cost tables, fold them over
// space — the structure's counted space, core.Prepare of its memo — for
// the cheapest plan, and rank it. Neither memo nor space is written.
func (s *Structure) Cost(space *core.Space, factors map[algebra.RelSet]float64) (*Costing, error) {
	if space.Memo != s.Memo {
		return nil, fmt.Errorf("opt: space was counted over another memo")
	}
	tab, err := cost.Fill(s.Memo, s.Query, factors)
	if err != nil {
		return nil, err
	}
	best, bestCost, err := space.Cheapest(tab.Combine)
	if err != nil {
		return nil, err
	}
	rank, err := space.Rank(best)
	if err != nil {
		return nil, err
	}
	return &Costing{Tables: tab, Best: best, BestCost: bestCost, OptimalRank: rank, Memo: s.Memo}, nil
}

// RetainedExprs simulates the paper's remark that "some optimizers by
// default discard suboptimal expressions": it returns the set of
// operators a pruning optimizer would retain. For every (group,
// ordering) reachable from the root only the winning operator survives,
// and those winners are exactly the operators of the optimal plan.
// Counting plans over this filtered MEMO quantifies how much of the
// space pruning hides from testing (ablation E9).
func (c *Costing) RetainedExprs() map[*memo.Expr]bool {
	retained := make(map[*memo.Expr]bool)
	for _, e := range c.Best.Operators() {
		retained[e] = true
	}
	return retained
}
