package engine

import (
	"sort"
	"strings"

	"repro/internal/algebra"
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
	for i := range s.All() {
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

// feedbackKeys returns the structure's feedback key of every scan and
// join group, by group ID, rendering them on first use. Keys depend
// only on the group, so one rendering serves every re-cost and every
// recorded execution over the structure; a structure that is never
// re-costed under feedback nor executed never renders them.
func (ss *StructureSpace) feedbackKeys() []string {
	ss.keysOnce.Do(func() {
		keys := make([]string, len(ss.Memo.Groups)+1)
		for _, g := range ss.Memo.Groups {
			if g.Kind == memo.GroupScan || g.Kind == memo.GroupJoin {
				keys[g.ID] = feedbackKey(ss.Query, g.RelSet)
			}
		}
		ss.keys = keys
	})
	return ss.keys
}

// factors turns an immutable epoch view (feedback.Store.EpochView) into
// the relation-subset correction factors cost.Fill applies. The
// estimator corrects exactly the relation subsets of the memo's scan
// and join groups, so looking up their keys finds every factor that
// applies. An empty view gives nil and renders no keys. The view, not
// the live store, is consulted, so an overlay is costed with exactly
// the factors of the epoch in its overlay key even when a
// concurrent ApplyFeedback advances the store mid-build.
func (ss *StructureSpace) factors(view map[string]float64) map[algebra.RelSet]float64 {
	if len(view) == 0 {
		return nil
	}
	keys := ss.feedbackKeys()
	factors := make(map[algebra.RelSet]float64)
	for _, g := range ss.Memo.Groups {
		if k := keys[g.ID]; k != "" {
			if f, ok := view[k]; ok {
				factors[g.RelSet] = f
			}
		}
	}
	return factors
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
	keys := p.Shared.feedbackKeys()
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
		est := p.Opt.Tables.CardOf(g)
		if est <= 0 {
			continue
		}
		rel := g.RelSet.First()
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
		est := p.Opt.Tables.CardOf(g)
		obs := observed(op)
		// Observations carry the overlay's epoch: the store drops them
		// if a fold landed while this execution was in flight (their
		// ratios reflect pre-fold estimates and must not compose onto
		// the new factors).
		switch g.Kind {
		case memo.GroupScan:
			e.fb.Record(keys[g.ID], est, obs, p.epoch)
		case memo.GroupJoin:
			baseline := est
			for rel := range g.RelSet.All() {
				if r, ok := scanRatio[rel]; ok {
					baseline *= r
				}
			}
			e.fb.Record(keys[g.ID], baseline, obs, p.epoch)
		}
	}
}
