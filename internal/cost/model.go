package cost

import (
	"fmt"
	"math"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/memo"
)

// Fill computes the cost overlay of query q's memo m under params p and
// the feedback correction factors (relation subset → multiplicative
// factor, nil for none): every group's estimated cardinality, then every
// physical operator's local cost from those cardinalities. The estimator
// and model that derive them live only for the call; the returned Tables
// are all a costing keeps.
func Fill(m *memo.Memo, q *algebra.Query, p Params, factors map[algebra.RelSet]float64) (*Tables, error) {
	est := estimator{q: q, factors: factors}
	tab := newTables(m)
	for _, g := range m.Groups {
		tab.Cards[g.ID] = est.groupCard(g)
	}
	md := model{p: p, est: &est, tab: tab}
	if err := md.fillLocals(m); err != nil {
		return nil, err
	}
	return tab, nil
}

// model turns memo operators into local costs, reading cardinalities
// from the overlay it fills.
type model struct {
	p   Params
	est *estimator
	tab *Tables
}

// fillLocals computes every physical operator's local cost in mem into
// the overlay, from the overlay's cardinalities; Tables.Combine reads
// them back instead of re-deriving them for every plan it costs.
func (m *model) fillLocals(mem *memo.Memo) error {
	for _, g := range mem.Groups {
		for _, e := range g.Physical {
			lc, err := m.local(e)
			if err != nil {
				return err
			}
			m.tab.Locals[e.ID] = lc
		}
	}
	return nil
}

// local returns the operator's own cost contribution assuming each child
// executes once (the nested-loop rescan multiplier lives in Combine).
func (m *model) local(e *memo.Expr) (float64, error) {
	p := m.p
	out := m.tab.CardOf(e.Group)
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
		build := m.tab.CardOf(e.Children[0])
		probe := m.tab.CardOf(e.Children[1])
		cost := build*p.CPUBuild + probe*p.CPUProbe + out*p.CPUTuple
		if res := len(e.Join.Residual); res > 0 {
			cost += probe * float64(res) * p.CPUEval
		}
		if bp := m.pages(e.Children[0]); bp > p.MemoryPages {
			cost += 2 * (bp + m.pages(e.Children[1])) * p.SeqPageCost
		}
		return cost, nil

	case memo.MergeJoin:
		l, r := m.tab.CardOf(e.Children[0]), m.tab.CardOf(e.Children[1])
		cost := (l+r)*p.CPUCompare + out*p.CPUTuple
		if res := len(e.Join.Residual); res > 0 {
			cost += out * float64(res) * p.CPUEval
		}
		return cost, nil

	case memo.NestedLoopJoin:
		l, r := m.tab.CardOf(e.Children[0]), m.tab.CardOf(e.Children[1])
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
		outer := m.tab.CardOf(e.Children[0])
		matched := out
		inner := float64(e.Lookup.Rel.Table.RowCount)
		probe := p.RandPageCost + math.Log2(inner+2)*p.CPUCompare
		return outer*probe + matched*p.CPUTuple + matched*p.CPUEval, nil

	case memo.HashAgg:
		in := m.tab.CardOf(e.Children[0])
		aggs := float64(len(m.est.q.Aggs) + len(m.est.q.GroupBy))
		return in*p.CPUBuild + in*aggs*p.CPUEval + out*p.CPUTuple, nil

	case memo.StreamAgg:
		in := m.tab.CardOf(e.Children[0])
		aggs := float64(len(m.est.q.Aggs) + len(m.est.q.GroupBy))
		return in*p.CPUCompare + in*aggs*p.CPUEval + out*p.CPUTuple, nil

	case memo.Sort:
		return m.sortCost(m.tab.CardOf(e.Children[0]), e.Children[0]), nil

	case memo.Result:
		proj := float64(len(m.est.q.Projections))
		cost := out*proj*p.CPUEval + out*p.CPUTuple
		if !e.SortOrder.IsNone() {
			cost += m.sortCost(out, e.Group)
		}
		return cost, nil

	default:
		return 0, fmt.Errorf("cost: no cost formula for operator %s (%s)", e.Op, e.Name())
	}
}

func (m *model) sortCost(n float64, g *memo.Group) float64 {
	p := m.p
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
func (m *model) pages(g *memo.Group) float64 { return m.pagesFor(m.tab.CardOf(g), g) }

func (m *model) pagesFor(card float64, g *memo.Group) float64 {
	width := 0.0
	for i := range g.RelSet.All() {
		w := m.est.q.Rels[i].Table.AvgRowBytes
		if w <= 0 {
			w = 64
		}
		width += float64(w)
	}
	if width == 0 {
		width = 32
	}
	pg := card * width / float64(m.p.PageBytes)
	if pg < 1 {
		return 1
	}
	return pg
}

// indexMatchFrac estimates the fraction of an index that must be visited
// given the relation's pushed-down filters: predicates constraining the
// index's leading key column shrink the scanned range.
func (m *model) indexMatchFrac(rel *algebra.BaseRel, idx *catalog.Index) float64 {
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
		frac *= m.est.predSelectivity(f)
	}
	return frac
}
