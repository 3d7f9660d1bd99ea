package cost

import (
	"fmt"
	"math"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/memo"
)

// Fill computes the cost overlay of query q's memo m under the feedback
// correction factors (relation subset → multiplicative factor, nil for
// none): every group's estimated cardinality, then every
// physical operator's local cost from those cardinalities. The estimator
// and model that derive them live only for the call; the returned Tables
// are all a costing keeps.
func Fill(m *memo.Memo, q *algebra.Query, factors map[algebra.RelSet]float64) (*Tables, error) {
	est := estimator{q: q, factors: factors}
	tab := newTables(m)
	for _, g := range m.Groups {
		tab.Cards[g.ID] = est.groupCard(g)
	}
	md := model{est: &est, tab: tab}
	if err := md.fillLocals(m); err != nil {
		return nil, err
	}
	return tab, nil
}

// model turns memo operators into local costs, reading cardinalities
// from the overlay it fills.
type model struct {
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
	out := m.tab.CardOf(e.Group)
	switch e.Op {
	case memo.TableScan:
		rel := e.Scan.Rel
		rows := float64(rel.Table.RowCount)
		return rel.Table.Pages(pageBytes)*seqPageCost +
			rows*cpuTuple +
			rows*float64(len(rel.Filters))*cpuEval, nil

	case memo.IndexScan:
		rel := e.Scan.Rel
		rows := float64(rel.Table.RowCount)
		frac := m.indexMatchFrac(rel, e.Scan.Index)
		visit := math.Max(1, rows*frac)
		pages := math.Max(1, rel.Table.Pages(pageBytes)*frac)
		return pages*randPageCost +
			visit*cpuTuple +
			visit*float64(len(rel.Filters))*cpuEval, nil

	case memo.HashJoin:
		build := m.tab.CardOf(e.Children[0])
		probe := m.tab.CardOf(e.Children[1])
		cost := build*cpuBuild + probe*cpuProbe + out*cpuTuple
		if res := len(e.Join.Residual); res > 0 {
			cost += probe * float64(res) * cpuEval
		}
		if bp := m.pages(e.Children[0]); bp > memoryPages {
			cost += 2 * (bp + m.pages(e.Children[1])) * seqPageCost
		}
		return cost, nil

	case memo.MergeJoin:
		l, r := m.tab.CardOf(e.Children[0]), m.tab.CardOf(e.Children[1])
		cost := (l+r)*cpuCompare + out*cpuTuple
		if res := len(e.Join.Residual); res > 0 {
			cost += out * float64(res) * cpuEval
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
		return l*r*float64(preds)*cpuEval + out*cpuTuple, nil

	case memo.IndexNLJoin:
		// One random page probe per outer row plus the matched inner
		// rows. Beats hash joins for small outers over large inners and
		// loses badly for large outers — the classic crossover.
		outer := m.tab.CardOf(e.Children[0])
		matched := out
		inner := float64(e.Lookup.Rel.Table.RowCount)
		probe := randPageCost + math.Log2(inner+2)*cpuCompare
		return outer*probe + matched*cpuTuple + matched*cpuEval, nil

	case memo.HashAgg:
		in := m.tab.CardOf(e.Children[0])
		aggs := float64(len(m.est.q.Aggs) + len(m.est.q.GroupBy))
		return in*cpuBuild + in*aggs*cpuEval + out*cpuTuple, nil

	case memo.StreamAgg:
		in := m.tab.CardOf(e.Children[0])
		aggs := float64(len(m.est.q.Aggs) + len(m.est.q.GroupBy))
		return in*cpuCompare + in*aggs*cpuEval + out*cpuTuple, nil

	case memo.Sort:
		return m.sortCost(m.tab.CardOf(e.Children[0]), e.Children[0]), nil

	case memo.Result:
		proj := float64(len(m.est.q.Projections))
		cost := out*proj*cpuEval + out*cpuTuple
		if !e.SortOrder.IsNone() {
			cost += m.sortCost(out, e.Group)
		}
		return cost, nil

	default:
		return 0, fmt.Errorf("cost: no cost formula for operator %s (%s)", e.Op, e.Name())
	}
}

func (m *model) sortCost(n float64, g *memo.Group) float64 {
	if n < 1 {
		n = 1
	}
	cost := n*math.Log2(n+1)*cpuCompare + n*cpuTuple
	if pg := m.pagesFor(n, g); pg > memoryPages {
		cost += 2 * pg * seqPageCost
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
	pg := card * width / pageBytes
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
