package cost

import (
	"fmt"
	"math"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/memo"
)

// Model turns memo expressions into costs. Combine computes the total
// cost of a plan rooted at an operator from the total costs of its chosen
// child sub-plans; it is the single costing entry point used both by the
// optimizer's winner computation and by the cost-distribution experiments
// that cost uniformly sampled plans.
//
// A Model reads cardinalities and memoized local costs from an overlay
// (cost.Tables), so many costings can share one immutable memo.
type Model struct {
	P   Params
	Est *Estimator

	tab *Tables
}

// NewModelWith returns a model reading cardinalities and local costs
// from the given overlay.
func NewModelWith(est *Estimator, tab *Tables) *Model {
	return &Model{P: est.P, Est: est, tab: tab}
}

// CardOf returns the overlay's estimated output cardinality of a group.
func (m *Model) CardOf(g *memo.Group) float64 { return m.tab.CardOf(g) }

// FillLocals computes every physical operator's local cost in mem into
// the overlay, from the overlay's cardinalities; Combine reads them
// back instead of re-deriving them for every plan it costs.
func (m *Model) FillLocals(mem *memo.Memo) error {
	for _, g := range mem.Groups {
		for _, e := range g.Physical {
			lc, err := m.Local(e)
			if err != nil {
				return err
			}
			m.tab.Locals[e.ID] = lc
		}
	}
	return nil
}

// Combine returns the full cost of the plan rooted at e given the full
// costs of its child sub-plans. For most operators this is local cost
// plus the sum of child costs; the nested-loop join instead re-executes
// its inner child once per outer row, which is the structural source of
// the enormous worst-case plans in Table 1.
func (m *Model) Combine(e *memo.Expr, childCosts []float64) (float64, error) {
	if len(childCosts) != len(e.Children) {
		return 0, fmt.Errorf("cost: operator %s has %d children, got %d child costs",
			e.Name(), len(e.Children), len(childCosts))
	}
	if e.ID >= len(m.tab.Locals) {
		return 0, fmt.Errorf("cost: operator %s (expr %d) is outside the overlay's memo", e.Name(), e.ID)
	}
	local := m.tab.Locals[e.ID]
	if e.Op == memo.NestedLoopJoin {
		outer := m.CardOf(e.Children[0])
		rescans := math.Max(1, outer)
		return local + childCosts[0] + rescans*childCosts[1], nil
	}
	total := local
	for _, c := range childCosts {
		total += c
	}
	return total, nil
}

// Local returns the operator's own cost contribution assuming each child
// executes once (the nested-loop rescan multiplier lives in Combine).
func (m *Model) Local(e *memo.Expr) (float64, error) {
	p := m.P
	out := m.CardOf(e.Group)
	switch e.Op {
	case memo.TableScan:
		rel := e.Scan.Rel
		rows := float64(rel.Table.RowCount)
		return rel.Table.Pages(p.PageBytes)*p.SeqPageCost +
			rows*p.CPUTuple +
			rows*float64(len(rel.Filters))*p.CPUEval, nil

	case memo.IndexScan:
		rel := e.Scan.Rel
		rows := float64(rel.Table.RowCount)
		frac := m.indexMatchFrac(rel, e.Scan.Index)
		visit := math.Max(1, rows*frac)
		pages := math.Max(1, rel.Table.Pages(p.PageBytes)*frac)
		return pages*p.RandPageCost +
			visit*p.CPUTuple +
			visit*float64(len(rel.Filters))*p.CPUEval, nil

	case memo.HashJoin:
		build := m.CardOf(e.Children[0])
		probe := m.CardOf(e.Children[1])
		cost := build*p.CPUBuild + probe*p.CPUProbe + out*p.CPUTuple
		if res := len(e.Join.Residual); res > 0 {
			cost += probe * float64(res) * p.CPUEval
		}
		if bp := m.pages(e.Children[0]); bp > p.MemoryPages {
			cost += 2 * (bp + m.pages(e.Children[1])) * p.SeqPageCost
		}
		return cost, nil

	case memo.MergeJoin:
		l, r := m.CardOf(e.Children[0]), m.CardOf(e.Children[1])
		cost := (l+r)*p.CPUCompare + out*p.CPUTuple
		if res := len(e.Join.Residual); res > 0 {
			cost += out * float64(res) * p.CPUEval
		}
		return cost, nil

	case memo.NestedLoopJoin:
		l, r := m.CardOf(e.Children[0]), m.CardOf(e.Children[1])
		preds := 1
		if e.Join != nil {
			preds = len(e.Join.Equi) + len(e.Join.Residual)
			if preds == 0 {
				preds = 1
			}
		}
		return l*r*float64(preds)*p.CPUEval + out*p.CPUTuple, nil

	case memo.IndexNLJoin:
		// One random page probe per outer row plus the matched inner
		// rows. Beats hash joins for small outers over large inners and
		// loses badly for large outers — the classic crossover.
		outer := m.CardOf(e.Children[0])
		matched := out
		inner := float64(e.Lookup.Rel.Table.RowCount)
		probe := p.RandPageCost + math.Log2(inner+2)*p.CPUCompare
		return outer*probe + matched*p.CPUTuple + matched*p.CPUEval, nil

	case memo.HashAgg:
		in := m.CardOf(e.Children[0])
		aggs := float64(len(m.Est.Q.Aggs) + len(m.Est.Q.GroupBy))
		return in*p.CPUBuild + in*aggs*p.CPUEval + out*p.CPUTuple, nil

	case memo.StreamAgg:
		in := m.CardOf(e.Children[0])
		aggs := float64(len(m.Est.Q.Aggs) + len(m.Est.Q.GroupBy))
		return in*p.CPUCompare + in*aggs*p.CPUEval + out*p.CPUTuple, nil

	case memo.Sort:
		return m.sortCost(m.CardOf(e.Children[0]), e.Children[0]), nil

	case memo.Result:
		proj := float64(len(m.Est.Q.Projections))
		cost := out*proj*p.CPUEval + out*p.CPUTuple
		if !e.SortOrder.IsNone() {
			cost += m.sortCost(out, e.Group)
		}
		return cost, nil

	default:
		return 0, fmt.Errorf("cost: no cost formula for operator %s (%s)", e.Op, e.Name())
	}
}

func (m *Model) sortCost(n float64, g *memo.Group) float64 {
	p := m.P
	if n < 1 {
		n = 1
	}
	cost := n*math.Log2(n+1)*p.CPUCompare + n*p.CPUTuple
	if pg := m.pagesFor(n, g); pg > p.MemoryPages {
		cost += 2 * pg * p.SeqPageCost
	}
	return cost
}

// pages estimates the page footprint of a group's output.
func (m *Model) pages(g *memo.Group) float64 { return m.pagesFor(m.CardOf(g), g) }

func (m *Model) pagesFor(card float64, g *memo.Group) float64 {
	width := 0.0
	for _, i := range g.RelSet.Indices() {
		w := m.Est.Q.Rels[i].Table.AvgRowBytes
		if w <= 0 {
			w = 64
		}
		width += float64(w)
	}
	if width == 0 {
		width = 32
	}
	pg := card * width / float64(m.P.PageBytes)
	if pg < 1 {
		return 1
	}
	return pg
}

// indexMatchFrac estimates the fraction of an index that must be visited
// given the relation's pushed-down filters: predicates constraining the
// index's leading key column shrink the scanned range.
func (m *Model) indexMatchFrac(rel *algebra.BaseRel, idx *catalog.Index) float64 {
	if idx == nil || len(idx.KeyCols) == 0 {
		return 1
	}
	leadID := rel.Cols[idx.KeyCols[0]].ID
	frac := 1.0
	for _, f := range rel.Filters {
		cols := make(map[algebra.ColID]algebra.Column)
		algebra.ColumnsIn(f, cols)
		if len(cols) != 1 {
			continue
		}
		if _, ok := cols[leadID]; !ok {
			continue
		}
		frac *= m.Est.PredSelectivity(f)
	}
	return frac
}
