package engine

import (
	"sort"
	"strings"
	"sync"

	"repro/internal/algebra"
	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/memo"
)

// feedbackKey canonically renders the sub-problem "the output of
// relation subset s of query q": each member relation as
// "table[filter;...]" (its pushed-down filters, AST-rendered), sorted,
// plus every join predicate applicable within s, sorted. Keys are
// catalog-scoped, not query-scoped: two queries that join the same
// tables under the same filters and predicates share corrections, which
// is what lets feedback harvested from one workload improve another.
func feedbackKey(q *algebra.Query, s algebra.RelSet) string {
	var sb strings.Builder
	parts := make([]string, 0, 4)
	for _, i := range s.Indices() {
		rel := q.Rels[i]
		var p strings.Builder
		p.WriteString(rel.Table.Name)
		if len(rel.Filters) > 0 {
			p.WriteByte('[')
			for fi, f := range rel.Filters {
				if fi > 0 {
					p.WriteByte(';')
				}
				p.WriteString(f.String())
			}
			p.WriteByte(']')
		}
		parts = append(parts, p.String())
	}
	sort.Strings(parts)
	sb.WriteString(strings.Join(parts, ","))
	if !s.Single() {
		preds := make([]string, 0, 4)
		for _, p := range q.Preds {
			if p.Refs.SubsetOf(s) && !p.Refs.Single() {
				preds = append(preds, p.Expr.String())
			}
		}
		if len(preds) > 0 {
			sort.Strings(preds)
			sb.WriteByte('|')
			sb.WriteString(strings.Join(preds, "&"))
		}
	}
	return sb.String()
}

// corrector builds the cost.Correction the overlay builder installs in
// its estimator: relation subset → factor from the given immutable
// epoch view (feedback.Store.EpochView). Returns nil for an empty view
// — then every factor is 1 and rendering keys per relation subset
// would be pure overhead on the re-cost hot path. The view, not the
// live store, is consulted, so an overlay is costed with exactly the
// factors of the epoch baked into its fingerprint even when a
// concurrent ApplyFeedback advances the store mid-build.
func corrector(q *algebra.Query, view map[string]float64) cost.Correction {
	if len(view) == 0 {
		return nil
	}
	// Key rendering (sorted filter/predicate strings) is the expensive
	// part, and the estimator asks for the same subsets repeatedly
	// (every BaseCard term of every SetCard product), so factors are
	// memoized per subset. The estimator may be consulted from
	// concurrent readers after the overlay is built, hence the lock.
	var mu sync.Mutex
	memoized := make(map[algebra.RelSet]float64)
	return func(s algebra.RelSet) float64 {
		mu.Lock()
		f, ok := memoized[s]
		mu.Unlock()
		if ok {
			return f
		}
		f = 1
		if v, ok := view[feedbackKey(q, s)]; ok {
			f = v
		}
		mu.Lock()
		memoized[s] = f
		mu.Unlock()
		return f
	}
}

// recordExecution harvests (estimated, observed) cardinality pairs from
// one completed execution into the engine's feedback store. Truncated
// runs are skipped — their counters describe an arbitrary prefix, not a
// cardinality. Only scan and join groups are recorded (aggregation
// cardinality feedback would need its own key space), and the observed
// value is the operator's per-open output (exec.OpStats.ObservedRows),
// which stays correct under nested-loop rescans.
//
// Join observations are normalized by the SAME execution's base-scan
// ratios before recording: a join's raw observed/estimated ratio
// inherits every member relation's base error, and at re-cost time
// those base corrections already propagate into the join estimate
// through the corrected BaseCards — recording the raw ratio would fold
// the base error twice (once per tier of the hierarchy) and overshoot
// the join estimate by exactly the base factor. Dividing out the
// members' observed ratios leaves only the join-selectivity residual,
// which composes cleanly.
func (e *Engine) recordExecution(p *Prepared, res *exec.Result) {
	if e.fb == nil || res == nil || res.Stats.Truncated {
		return
	}
	m := p.Shared.Memo
	groupOf := func(op *exec.OpStats) *memo.Group {
		if op.Group <= 0 || op.Group > len(m.Groups) || op.Opens == 0 {
			return nil
		}
		g := m.Groups[op.Group-1]
		if g.ID != op.Group {
			return nil
		}
		return g
	}
	observed := func(op *exec.OpStats) float64 {
		obs := op.ObservedRows()
		if obs < 1 {
			obs = 1 // the estimator floors cardinalities at 1; mirror it
		}
		return obs
	}
	// Pass 1: base-scan ratios per relation (relations accessed without
	// a scan operator — an index-lookup join's inner side — simply
	// contribute no ratio and no scan observation this round).
	scanRatio := make(map[int]float64, len(p.Shared.Query.Rels))
	for i := range res.Stats.Operators {
		op := &res.Stats.Operators[i]
		g := groupOf(op)
		if g == nil || g.Kind != memo.GroupScan {
			continue
		}
		est := p.Overlay.Costing.Tables.CardOf(g)
		if est <= 0 {
			continue
		}
		rel := g.RelSet.Indices()[0]
		if _, seen := scanRatio[rel]; !seen { // enforcers in the group repeat the cardinality
			scanRatio[rel] = observed(op) / est
		}
	}
	for i := range res.Stats.Operators {
		op := &res.Stats.Operators[i]
		g := groupOf(op)
		if g == nil {
			continue
		}
		est := p.Overlay.Costing.Tables.CardOf(g)
		obs := observed(op)
		// Observations carry the overlay's epoch: the store drops them
		// if a fold landed while this execution was in flight (their
		// ratios reflect pre-fold estimates and must not compose onto
		// the new factors).
		switch g.Kind {
		case memo.GroupScan:
			e.fb.Record(feedbackKey(p.Shared.Query, g.RelSet), est, obs, p.Overlay.Epoch)
		case memo.GroupJoin:
			baseline := est
			for _, rel := range g.RelSet.Indices() {
				if r, ok := scanRatio[rel]; ok {
					baseline *= r
				}
			}
			e.fb.Record(feedbackKey(p.Shared.Query, g.RelSet), baseline, obs, p.Overlay.Epoch)
		}
	}
}
