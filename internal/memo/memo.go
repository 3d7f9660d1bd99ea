// Package memo implements the MEMO structure of Volcano/Cascades-style
// optimizers as described in Section 2 of the paper: a system of groups,
// each representing a sub-goal of the query, holding logical operators
// and their alternative physical implementations, with children referred
// to by group rather than by operator. The MEMO is the compact encoding
// of the complete search space that the counting/unranking machinery in
// internal/core operates on.
package memo

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/algebra"
	"repro/internal/catalog"
)

// OpKind enumerates logical and physical operators. Logical operators map
// to relational algebra; physical operators are implementations that can
// appear in executable plans (only physical operators participate in
// counting and unranking).
type OpKind uint8

// Operator kinds.
const (
	// Logical operators.
	LogicalGet OpKind = iota
	LogicalJoin
	LogicalAgg
	LogicalResult

	// Physical operators.
	TableScan
	IndexScan
	HashJoin
	MergeJoin
	NestedLoopJoin
	IndexNLJoin // nested loops with index lookups into the inner table
	HashAgg
	StreamAgg
	Sort // the sort enforcer
	Result
)

var opNames = [...]string{
	"Get", "Join", "Agg", "ResultLogical",
	"TableScan", "IndexScan", "HashJoin", "MergeJoin", "NestedLoopJoin",
	"IndexNLJoin", "HashAgg", "StreamAgg", "Sort", "Result",
}

// String returns the operator's display name.
func (k OpKind) String() string { return opNames[k] }

// Logical reports whether the operator is a logical (non-executable) one.
func (k OpKind) Logical() bool { return k <= LogicalResult }

// Physical reports whether the operator can appear in an execution plan.
func (k OpKind) Physical() bool { return !k.Logical() }

// Enforcer reports whether the operator exists to enforce a physical
// property rather than to implement a logical operator. Enforcers take
// operators of their own group as input.
func (k OpKind) Enforcer() bool { return k == Sort }

// GroupKind classifies what sub-goal a group stands for.
type GroupKind uint8

// Group kinds: a scan of one base relation, a join over a relation
// subset, the aggregation, or the final result (projection + order).
const (
	GroupScan GroupKind = iota
	GroupJoin
	GroupAgg
	GroupRoot
)

var groupKindNames = [...]string{"scan", "join", "agg", "root"}

// String returns the group kind's name.
func (k GroupKind) String() string { return groupKindNames[k] }

// ScanSpec is the payload of Get/TableScan/IndexScan operators.
type ScanSpec struct {
	Rel   *algebra.BaseRel
	Index *catalog.Index // nil for logical Get and TableScan
}

// JoinSpec is the payload shared by a logical join and its physical
// implementations: the predicates that cross the cut between the two
// child groups, split into equi-join conjuncts and residual conjuncts.
type JoinSpec struct {
	Equi     []*algebra.PredInfo
	Residual []*algebra.PredInfo
}

// Keys returns the (leftKey, rightKey) column pairs oriented so the left
// key belongs to leftSet. Hash and merge joins key on these.
func (s *JoinSpec) Keys(leftSet algebra.RelSet) (l, r []algebra.Column) {
	for _, p := range s.Equi {
		if leftSet.Has(p.LCol.Rel) {
			l = append(l, p.LCol)
			r = append(r, p.RCol)
		} else {
			l = append(l, p.RCol)
			r = append(r, p.LCol)
		}
	}
	return l, r
}

// LookupSpec is the payload of an index nested-loop join: for each outer
// row, the values of OuterKeys are looked up in Index on the inner base
// relation, whose leading key columns are InnerKeys. The operator has a
// single child slot (the outer); the inner access path is part of the
// operator itself — the "index utilization" dimension of the paper's
// search space description.
type LookupSpec struct {
	Rel       *algebra.BaseRel
	Index     *catalog.Index
	OuterKeys []algebra.Column // outer-side columns, index key order
	InnerKeys []algebra.Column // inner columns = leading index key columns
}

// Expr is one operator in the MEMO — a node with children referred to by
// group, exactly as in the paper's Figures 1-3. An operator carries the
// physical-property contract used when materializing links: the ordering
// it Delivers and the ordering it Requires of each child slot.
type Expr struct {
	ID    int    // global creation sequence (deterministic)
	Local int    // 1-based index within the group, for "group.local" display
	Group *Group // owning group

	Op       OpKind
	Children []*Group

	// Required[i] is the ordering this operator demands of child i
	// (nil: any). Delivered is the ordering this operator's output has
	// (nil: none). Enforcers deliver their sort order; index scans
	// deliver their key order; merge joins deliver their left key order.
	Required  []algebra.Ordering
	Delivered algebra.Ordering

	// Operator payloads (at most one is set, by Op; IndexNLJoin sets
	// both Join and Lookup).
	Scan      *ScanSpec
	Join      *JoinSpec
	Lookup    *LookupSpec
	SortOrder algebra.Ordering // Sort enforcer
}

// IsEnforcer reports whether the expression is a property enforcer.
func (e *Expr) IsEnforcer() bool { return e.Op.Enforcer() }

// Name returns the paper-style "group.local" operator name, e.g. "7.7".
func (e *Expr) Name() string { return string(e.AppendName(nil)) }

// AppendName appends Name's rendering to b.
func (e *Expr) AppendName(b []byte) []byte {
	b = strconv.AppendInt(b, int64(e.Group.ID), 10)
	return strconv.AppendInt(append(b, '.'), int64(e.Local), 10)
}

// Describe renders the operator with its payload for plan display.
func (e *Expr) Describe() string { return string(e.AppendDescribe(nil)) }

// AppendDescribe appends Describe's rendering to b.
func (e *Expr) AppendDescribe(b []byte) []byte {
	b = append(b, opNames[e.Op]...)
	switch {
	case e.Scan != nil && e.Scan.Index != nil:
		b = append(append(append(append(b, '('), e.Scan.Rel.Name...), '.'), e.Scan.Index.Name...)
		b = append(b, ')')
	case e.Scan != nil:
		b = append(append(append(b, '('), e.Scan.Rel.Name...), ')')
	case e.Op == Sort:
		b = e.SortOrder.AppendTo(b)
	case e.Op == IndexNLJoin && e.Lookup != nil:
		b = append(append(append(append(b, "(lookup "...), e.Lookup.Rel.Name...), '.'), e.Lookup.Index.Name...)
		b = append(b, ')')
	case e.Op == MergeJoin || e.Op == HashJoin || e.Op == NestedLoopJoin || e.Op == LogicalJoin:
		if e.Join != nil {
			b = strconv.AppendInt(append(b, '['), int64(len(e.Join.Equi)+len(e.Join.Residual)), 10)
			b = append(b, " preds]"...)
		}
	}
	return b
}

// Group is a set of equivalent operators: every operator rooted here
// computes the same logical result (same relation subset, same sub-goal).
type Group struct {
	ID     int
	Kind   GroupKind
	RelSet algebra.RelSet

	Exprs    []*Expr // all operators in creation order
	Physical []*Expr // physical operators only, in creation order

	// InterestingOrders collects the orderings some parent operator
	// requires of this group; the optimizer adds one Sort enforcer per
	// entry. Deterministic registration order.
	InterestingOrders []algebra.Ordering
}

// RegisterInterestingOrder records a required ordering, deduplicated.
// It returns true when the ordering was new.
func (g *Group) RegisterInterestingOrder(o algebra.Ordering) bool {
	if o.IsNone() {
		return false
	}
	for _, have := range g.InterestingOrders {
		if have.Equal(o) {
			return false
		}
	}
	g.InterestingOrders = append(g.InterestingOrders, o.Clone())
	return true
}

// Memo is the full structure: groups in creation order plus the lookup
// indexes construction uses. Construction is deterministic, so plan
// numbering (Section 3) is stable across runs — a requirement for the
// USEPLAN interface to be usable in regression scripts.
type Memo struct {
	Query  *algebra.Query
	Groups []*Group
	Root   *Group

	byJoinSet  map[algebra.RelSet]*Group
	scanGroups []*Group
	AggGroup   *Group

	exprSeq int
}

// New returns an empty memo for a query.
func New(q *algebra.Query) *Memo {
	return &Memo{
		Query:      q,
		byJoinSet:  make(map[algebra.RelSet]*Group),
		scanGroups: make([]*Group, len(q.Rels)),
	}
}

// NewGroup creates and registers a group.
func (m *Memo) NewGroup(kind GroupKind, rels algebra.RelSet) *Group {
	g := &Group{ID: len(m.Groups) + 1, Kind: kind, RelSet: rels}
	m.Groups = append(m.Groups, g)
	switch kind {
	case GroupScan:
		m.scanGroups[rels.First()] = g
	case GroupJoin:
		m.byJoinSet[rels] = g
	case GroupAgg:
		m.AggGroup = g
	case GroupRoot:
		m.Root = g
	}
	return g
}

// ScanGroup returns the scan group of base relation i (nil before it is
// created).
func (m *Memo) ScanGroup(i int) *Group { return m.scanGroups[i] }

// JoinGroup returns the join group for a relation subset, if present.
func (m *Memo) JoinGroup(s algebra.RelSet) (*Group, bool) {
	g, ok := m.byJoinSet[s]
	return g, ok
}

// AddExpr appends an operator to a group and returns it. It does not
// look for an equal operator already there: the rules generate each
// operator once (every ordered partition is enumerated once with its own
// JoinSpec, and RegisterInterestingOrder dedups enforcers), which
// rules.TestBuildMemoHasNoDuplicateOperators checks.
func (m *Memo) AddExpr(g *Group, e Expr) *Expr {
	ex := &e
	m.exprSeq++
	ex.ID = m.exprSeq
	ex.Group = g
	ex.Local = len(g.Exprs) + 1
	g.Exprs = append(g.Exprs, ex)
	if ex.Op.Physical() {
		g.Physical = append(g.Physical, ex)
	}
	return ex
}

// Stats summarizes the memo's size.
type Stats struct {
	Groups      int
	LogicalOps  int
	PhysicalOps int
	EnforcerOps int
}

// Stats computes size statistics for reporting (the paper's footnote 1
// discusses operator counts for join reordering).
func (m *Memo) Stats() Stats {
	var s Stats
	s.Groups = len(m.Groups)
	for _, g := range m.Groups {
		for _, e := range g.Exprs {
			switch {
			case e.Op.Logical():
				s.LogicalOps++
			case e.IsEnforcer():
				s.EnforcerOps++
				s.PhysicalOps++
			default:
				s.PhysicalOps++
			}
		}
	}
	return s
}

// DumpAnnotated renders the memo in a Figure 2-like textual form: one
// line per group, operators named group.local with child group
// references. Each group's estimated cardinality is taken from cardOf,
// a cost overlay's (the memo itself carries no costs); a nil cardOf
// prints the structure alone.
func (m *Memo) DumpAnnotated(cardOf func(*Group) float64) string {
	var sb strings.Builder
	for _, g := range m.Groups {
		fmt.Fprintf(&sb, "Group %d (%s, rels=%s", g.ID, g.Kind, g.RelSet)
		if cardOf != nil {
			fmt.Fprintf(&sb, ", card=%.0f", cardOf(g))
		}
		sb.WriteString("):\n")
		for _, e := range g.Exprs {
			fmt.Fprintf(&sb, "  %-6s %-28s", e.Name(), e.Describe())
			if len(e.Children) > 0 {
				sb.WriteString(" children=[")
				for i, c := range e.Children {
					if i > 0 {
						sb.WriteByte(' ')
					}
					fmt.Fprintf(&sb, "%d", c.ID)
				}
				sb.WriteString("]")
			}
			if !e.Delivered.IsNone() {
				fmt.Fprintf(&sb, " delivers=%s", e.Delivered)
			}
			for i, r := range e.Required {
				if !r.IsNone() {
					fmt.Fprintf(&sb, " req[%d]=%s", i, r)
				}
			}
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}
