// Package rules populates a MEMO from a normalized query. It plays the
// role of the paper's transformation rules (Section 2): join
// commutativity and associativity are realized by enumerating, for every
// relation subset, every ordered two-way partition (which yields exactly
// the closure of those two rules — all bushy shapes in both operand
// orders); implementation rules produce the physical alternatives
// (table/index scans; hash/merge/nested-loop joins; hash/stream
// aggregation; result with and without a required output order); and sort
// enforcers are added for every "interesting order" some operator
// requires, mirroring the paper's operator 1.4.
//
// Construction is fully deterministic: subsets ascend numerically,
// partitions enumerate submasks in a fixed order, and rules fire in a
// fixed sequence. Plan numbering therefore remains stable across runs,
// which the USEPLAN regression workflow of Section 4 depends on.
package rules

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/memo"
)

// Config selects which parts of the space to generate. The defaults
// (every implementation enabled, no Cartesian products) correspond to the
// first half of the paper's Table 1; AllowCartesian corresponds to the
// second half.
type Config struct {
	AllowCartesian bool

	// Implementation toggles, all enabled by Default. Tests use them to
	// build small, predictable spaces.
	EnableHashJoin    bool
	EnableMergeJoin   bool
	EnableNLJoin      bool
	EnableIndexNLJoin bool
	EnableIndexScan   bool
	EnableStreamAgg   bool
}

// Default returns the full rule set without Cartesian products.
func Default() Config {
	return Config{
		EnableHashJoin:    true,
		EnableMergeJoin:   true,
		EnableNLJoin:      true,
		EnableIndexNLJoin: true,
		EnableIndexScan:   true,
		EnableStreamAgg:   true,
	}
}

// BuildMemo expands the complete search space for q into a fresh MEMO.
// Each operator is generated exactly once, so the memo needs no
// duplicate elimination.
func BuildMemo(q *algebra.Query, cfg Config) (*memo.Memo, error) {
	if len(q.Rels) == 0 {
		return nil, fmt.Errorf("rules: query has no relations")
	}
	m := memo.New(q)

	buildScanGroups(m, cfg)

	top, err := buildJoinGroups(m, cfg)
	if err != nil {
		return nil, err
	}

	if q.HasAgg() {
		top = buildAggGroup(m, cfg, top)
	}

	if err := buildRootGroup(m, top); err != nil {
		return nil, err
	}

	addEnforcers(m)
	return m, nil
}

// buildScanGroups creates one group per base relation holding the logical
// Get, a TableScan, and one IndexScan per index (delivering its key
// order) — the paper's Figure 2 pattern of TableScan + SortedIDXScan.
func buildScanGroups(m *memo.Memo, cfg Config) {
	q := m.Query
	for i, rel := range q.Rels {
		g := m.NewGroup(memo.GroupScan, algebra.SetOf(i))
		spec := &memo.ScanSpec{Rel: rel}
		m.AddExpr(g, memo.Expr{Op: memo.LogicalGet, Scan: spec})
		m.AddExpr(g, memo.Expr{Op: memo.TableScan, Scan: spec})
		if !cfg.EnableIndexScan {
			continue
		}
		for ii := range rel.Table.Indexes {
			idx := &rel.Table.Indexes[ii]
			delivered := make(algebra.Ordering, 0, len(idx.KeyCols))
			for _, kc := range idx.KeyCols {
				delivered = append(delivered, algebra.OrderCol{Col: rel.Cols[kc].ID})
			}
			m.AddExpr(g, memo.Expr{
				Op:        memo.IndexScan,
				Scan:      &memo.ScanSpec{Rel: rel, Index: idx},
				Delivered: delivered,
			})
		}
	}
}

// buildJoinGroups enumerates, for every relation subset of size >= 2,
// every ordered partition into two non-empty sides whose groups exist,
// subject to connectivity when Cartesian products are disallowed. It
// returns the group covering all relations.
func buildJoinGroups(m *memo.Memo, cfg Config) (*memo.Group, error) {
	q := m.Query
	n := len(q.Rels)
	if n == 1 {
		return m.ScanGroup(0), nil
	}
	full := algebra.RelSet(1)<<uint(n) - 1

	groupFor := func(s algebra.RelSet) *memo.Group {
		if s.Single() {
			return m.ScanGroup(s.First())
		}
		g, ok := m.JoinGroup(s)
		if !ok {
			return nil
		}
		return g
	}

	for s := algebra.RelSet(3); s <= full; s++ {
		if !s.SubsetOf(full) || s.Count() < 2 {
			continue
		}
		var g *memo.Group
		// Enumerate submasks of s in descending numeric order; each
		// (l, r) ordered pair appears exactly once, giving both commuted
		// variants of every partition, as in the paper's group 3 holding
		// both Join[1 2] and Join[2 1].
		for l := (s - 1) & s; l > 0; l = (l - 1) & s {
			r := s &^ l
			lg, rg := groupFor(l), groupFor(r)
			if lg == nil || rg == nil {
				continue
			}
			if !cfg.AllowCartesian && !q.Connected(l, r) {
				continue
			}
			if g == nil {
				g = m.NewGroup(memo.GroupJoin, s)
			}
			addJoinExprs(m, cfg, g, l, r, lg, rg)
		}
	}

	top := groupFor(full)
	if top == nil {
		return nil, fmt.Errorf("rules: join graph is disconnected; enable AllowCartesian to plan this query")
	}
	return top, nil
}

// addJoinExprs adds the logical join for the ordered partition (l, r) and
// its physical implementations.
func addJoinExprs(m *memo.Memo, cfg Config, g *memo.Group, l, r algebra.RelSet, lg, rg *memo.Group) {
	q := m.Query
	equi, rest := q.PredsFor(l, r)
	spec := &memo.JoinSpec{Equi: equi, Residual: rest}
	children := []*memo.Group{lg, rg}

	m.AddExpr(g, memo.Expr{Op: memo.LogicalJoin, Children: children, Join: spec})

	if cfg.EnableHashJoin && len(equi) > 0 {
		m.AddExpr(g, memo.Expr{Op: memo.HashJoin, Children: children, Join: spec})
	}
	lKeys, rKeys := spec.Keys(l) // oriented once for merge and index joins
	if cfg.EnableMergeJoin && len(equi) > 0 {
		lOrd := make(algebra.Ordering, len(lKeys))
		rOrd := make(algebra.Ordering, len(rKeys))
		for i := range lKeys {
			lOrd[i] = algebra.OrderCol{Col: lKeys[i].ID}
			rOrd[i] = algebra.OrderCol{Col: rKeys[i].ID}
		}
		m.AddExpr(g, memo.Expr{
			Op:        memo.MergeJoin,
			Children:  children,
			Join:      spec,
			Required:  []algebra.Ordering{lOrd, rOrd},
			Delivered: lOrd,
		})
	}
	if cfg.EnableNLJoin {
		m.AddExpr(g, memo.Expr{Op: memo.NestedLoopJoin, Children: children, Join: spec})
	}
	if cfg.EnableIndexNLJoin && r.Single() && len(equi) > 0 {
		addIndexNLJoins(m, g, lg, spec, lKeys, rKeys)
	}
}

// addIndexNLJoins generates, for a partition whose inner side is a single
// base relation, one index nested-loop join per index whose leading key
// columns are all bound by equi-join predicates. The inner access path is
// part of the operator (single child slot: the outer), so plans can use
// "operator implementations that the optimizer would not choose" — here,
// correlated index lookups, the paper's "index utilization" axis. lKeys
// and rKeys are spec's keys oriented to the partition (JoinSpec.Keys).
func addIndexNLJoins(m *memo.Memo, g *memo.Group, lg *memo.Group, spec *memo.JoinSpec, lKeys, rKeys []algebra.Column) {
	rel := m.Query.Rels[rKeys[0].Rel]
	for ii := range rel.Table.Indexes {
		idx := &rel.Table.Indexes[ii]
		var outer, inner []algebra.Column
		for _, kc := range idx.KeyCols {
			innerCol := rel.Cols[kc]
			found := false
			for i := range rKeys {
				if rKeys[i].ID == innerCol.ID {
					outer = append(outer, lKeys[i])
					inner = append(inner, innerCol)
					found = true
					break
				}
			}
			if !found {
				break // longest usable prefix only
			}
		}
		if len(outer) == 0 {
			continue
		}
		m.AddExpr(g, memo.Expr{
			Op:       memo.IndexNLJoin,
			Children: []*memo.Group{lg},
			Join:     spec,
			Lookup:   &memo.LookupSpec{Rel: rel, Index: idx, OuterKeys: outer, InnerKeys: inner},
		})
	}
}

// buildAggGroup places the aggregation above the top join group with a
// hash implementation and, when every grouping key is a plain column, a
// stream implementation requiring the child sorted on the keys.
func buildAggGroup(m *memo.Memo, cfg Config, child *memo.Group) *memo.Group {
	q := m.Query
	g := m.NewGroup(memo.GroupAgg, child.RelSet)
	children := []*memo.Group{child}
	m.AddExpr(g, memo.Expr{Op: memo.LogicalAgg, Children: children})
	m.AddExpr(g, memo.Expr{Op: memo.HashAgg, Children: children})

	if cfg.EnableStreamAgg && len(q.GroupBy) > 0 {
		ord := make(algebra.Ordering, 0, len(q.GroupBy))
		ok := true
		for i := range q.GroupBy {
			col, isCol := q.GroupBy[i].IsColRef()
			if !isCol {
				ok = false
				break
			}
			ord = append(ord, algebra.OrderCol{Col: col.ID})
		}
		if ok {
			m.AddExpr(g, memo.Expr{
				Op:        memo.StreamAgg,
				Children:  children,
				Required:  []algebra.Ordering{ord},
				Delivered: ord,
			})
		}
	}
	return g
}

// buildRootGroup adds the result group. Without ORDER BY there is a
// single pass-through Result. With ORDER BY there are up to two
// alternatives: a Result that sorts its own output, and — when every sort
// key is available in the child's output — a streaming Result that
// requires the child ordered (satisfied below by index orders, merge
// joins, stream aggregation, or an enforcer).
func buildRootGroup(m *memo.Memo, child *memo.Group) error {
	q := m.Query
	g := m.NewGroup(memo.GroupRoot, child.RelSet)
	children := []*memo.Group{child}
	m.AddExpr(g, memo.Expr{Op: memo.LogicalResult, Children: children})

	if q.OrderBy.IsNone() {
		m.AddExpr(g, memo.Expr{Op: memo.Result, Children: children})
		return nil
	}

	// Self-sorting variant is always valid.
	m.AddExpr(g, memo.Expr{
		Op:        memo.Result,
		Children:  children,
		SortOrder: q.OrderBy.Clone(),
		Delivered: q.OrderBy.Clone(),
	})

	// Streaming variant when the sort keys exist below the projection.
	childCols := childOutputIDs(q)
	streamable := true
	for _, oc := range q.OrderBy {
		if !childCols[oc.Col] {
			streamable = false
			break
		}
	}
	if streamable {
		m.AddExpr(g, memo.Expr{
			Op:        memo.Result,
			Children:  children,
			Required:  []algebra.Ordering{q.OrderBy.Clone()},
			Delivered: q.OrderBy.Clone(),
		})
	}
	return nil
}

// childOutputIDs lists the column IDs available in the root's child
// output: grouping keys and aggregate outputs above an aggregation, or
// every base column otherwise.
func childOutputIDs(q *algebra.Query) map[algebra.ColID]bool {
	out := make(map[algebra.ColID]bool)
	if q.HasAgg() {
		for i := range q.GroupBy {
			out[q.GroupBy[i].Out.ID] = true
		}
		for _, a := range q.Aggs {
			out[a.Out.ID] = true
		}
		return out
	}
	for _, rel := range q.Rels {
		for _, c := range rel.Cols {
			out[c.ID] = true
		}
	}
	return out
}

// addEnforcers walks every physical operator's child requirements,
// registers them as interesting orders on the child groups, and then adds
// one Sort enforcer per (group, ordering). Enforcers reference their own
// group, exactly like Sort 1.4 in the paper's Figure 2, and accept any
// non-enforcer operator of the group as input.
func addEnforcers(m *memo.Memo) {
	for _, g := range m.Groups {
		for _, e := range g.Physical {
			for i, req := range e.Required {
				if req.IsNone() {
					continue
				}
				e.Children[i].RegisterInterestingOrder(req)
			}
		}
	}
	for _, g := range m.Groups {
		for _, ord := range g.InterestingOrders {
			m.AddExpr(g, memo.Expr{
				Op:        memo.Sort,
				Children:  []*memo.Group{g},
				SortOrder: ord.Clone(),
				Delivered: ord.Clone(),
			})
		}
	}
}
