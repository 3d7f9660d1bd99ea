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
	"slices"
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

// CloneOnto returns a copy of m over q, a query of m's shape
// (rules.SameShape): the same groups and operators, with the same IDs
// and local indices, whose payloads point into q instead of m.Query.
// Scan and lookup specs name their relation by index, lookup keys are
// re-read from q's relations, and join specs name their predicates by
// index into q.Preds. The copy keeps one spec per spec of m. Orderings
// hold only column IDs and are shared with m, which is never written.
// It fails when q cannot hold m's payloads.
func (m *Memo) CloneOnto(q *algebra.Query) (*Memo, error) {
	if len(m.scanGroups) != len(q.Rels) {
		return nil, fmt.Errorf("memo: copy onto a query of %d relations, memo has %d", len(q.Rels), len(m.scanGroups))
	}
	c := &Memo{
		Query:      q,
		Groups:     make([]*Group, len(m.Groups)),
		byJoinSet:  make(map[algebra.RelSet]*Group, len(m.byJoinSet)),
		scanGroups: make([]*Group, len(q.Rels)),
		exprSeq:    m.exprSeq,
	}
	groups := make([]Group, len(m.Groups))
	for i, g := range m.Groups {
		ng := &groups[i]
		*ng = Group{ID: g.ID, Kind: g.Kind, RelSet: g.RelSet, InterestingOrders: slices.Clip(g.InterestingOrders)}
		c.Groups[i] = ng
		switch g.Kind {
		case GroupScan:
			c.scanGroups[g.RelSet.First()] = ng
		case GroupJoin:
			c.byJoinSet[g.RelSet] = ng
		case GroupAgg:
			c.AggGroup = ng
		case GroupRoot:
			c.Root = ng
		}
	}
	cl := newCloner(m, c)
	for i, g := range m.Groups {
		ng := c.Groups[i]
		ng.Exprs = carve(&cl.ptrs, len(g.Exprs))
		for j, e := range g.Exprs {
			ne := &cl.exprs[j]
			*ne = *e
			ne.Group = ng
			ng.Exprs[j] = ne
			ne.Children = cl.children(e.Children)
			var err error
			if ne.Scan, err = cl.scan(e.Scan); err != nil {
				return nil, err
			}
			if ne.Join, err = cl.join(e.Join); err != nil {
				return nil, err
			}
			if ne.Lookup, err = cl.lookup(e.Lookup); err != nil {
				return nil, err
			}
		}
		cl.exprs = cl.exprs[len(g.Exprs):]
		ng.Physical = carve(&cl.ptrs, len(g.Physical))[:0]
		for _, e := range ng.Exprs {
			if e.Op.Physical() {
				ng.Physical = append(ng.Physical, e)
			}
		}
	}
	return c, nil
}

// cloner re-points one memo's payloads into a copy (see CloneOnto),
// carving the copy from slabs sized to it. The rules give the
// operators that share a children slice or a spec consecutive IDs, so
// remembering the last template slice and spec of each kind, with its
// copy, keeps one copy per template slice and spec.
type cloner struct {
	c        *Memo
	from, to []*algebra.PredInfo // the template's and the copy's join predicates

	exprs    []Expr
	ptrs     []*Expr // groups' Exprs and Physical
	kids     []*Group
	scans    []ScanSpec
	joins    []JoinSpec
	predSlab []*algebra.PredInfo
	lookups  []LookupSpec
	cols     []algebra.Column

	lastKids, newKids []*Group
	lastScan, newScan *ScanSpec
	lastJoin, newJoin *JoinSpec
}

// newCloner sizes the slabs of a copy of m into c: one pass over m's
// operators with the same one-entry memory the copy keeps.
func newCloner(m, c *Memo) *cloner {
	var nexpr, nptr, nkid, nscan, njoin, npred, nlookup, ncol int
	var kids []*Group
	var scan *ScanSpec
	var join *JoinSpec
	for _, g := range m.Groups {
		nexpr += len(g.Exprs)
		nptr += len(g.Exprs) + len(g.Physical)
		for _, e := range g.Exprs {
			if len(e.Children) > 0 && !sameSlice(e.Children, kids) {
				nkid += len(e.Children)
				kids = e.Children
			}
			if e.Scan != nil && e.Scan != scan {
				nscan++
				scan = e.Scan
			}
			if e.Join != nil && e.Join != join {
				njoin++
				npred += len(e.Join.Equi) + len(e.Join.Residual)
				join = e.Join
			}
			if e.Lookup != nil {
				nlookup++
				ncol += len(e.Lookup.OuterKeys) + len(e.Lookup.InnerKeys)
			}
		}
	}
	return &cloner{
		c: c, from: m.Query.Preds, to: c.Query.Preds,
		exprs: make([]Expr, nexpr), ptrs: make([]*Expr, nptr), kids: make([]*Group, nkid),
		scans: make([]ScanSpec, nscan), joins: make([]JoinSpec, njoin), predSlab: make([]*algebra.PredInfo, npred),
		lookups: make([]LookupSpec, nlookup), cols: make([]algebra.Column, ncol),
	}
}

// carve takes the next n elements of a slab sized by newCloner.
func carve[T any](slab *[]T, n int) []T {
	s := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return s
}

// sameSlice reports whether a and b are the same slice.
func sameSlice[T any](a, b []T) bool { return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0]) }

// rel returns the copy's relation standing for template relation r.
func (cl *cloner) rel(r *algebra.BaseRel) (*algebra.BaseRel, error) {
	if r.Idx < 0 || r.Idx >= len(cl.c.Query.Rels) {
		return nil, fmt.Errorf("memo: relation %d is not in the query", r.Idx)
	}
	return cl.c.Query.Rels[r.Idx], nil
}

func (cl *cloner) children(gs []*Group) []*Group {
	if len(gs) == 0 {
		return nil
	}
	if sameSlice(gs, cl.lastKids) {
		return cl.newKids
	}
	out := carve(&cl.kids, len(gs))
	for i, g := range gs {
		out[i] = cl.c.Groups[g.ID-1]
	}
	cl.lastKids, cl.newKids = gs, out
	return out
}

func (cl *cloner) scan(s *ScanSpec) (*ScanSpec, error) {
	if s == nil {
		return nil, nil
	}
	if s == cl.lastScan {
		return cl.newScan, nil
	}
	rel, err := cl.rel(s.Rel)
	if err != nil {
		return nil, err
	}
	ns := &carve(&cl.scans, 1)[0]
	*ns = ScanSpec{Rel: rel, Index: s.Index}
	cl.lastScan, cl.newScan = s, ns
	return ns, nil
}

func (cl *cloner) join(s *JoinSpec) (*JoinSpec, error) {
	if s == nil {
		return nil, nil
	}
	if s == cl.lastJoin {
		return cl.newJoin, nil
	}
	ns := &carve(&cl.joins, 1)[0]
	var err error
	if ns.Equi, err = cl.preds(s.Equi); err != nil {
		return nil, err
	}
	if ns.Residual, err = cl.preds(s.Residual); err != nil {
		return nil, err
	}
	cl.lastJoin, cl.newJoin = s, ns
	return ns, nil
}

// preds returns the copy's predicates standing for template predicates
// ps: each the one at its template predicate's index in the query.
func (cl *cloner) preds(ps []*algebra.PredInfo) ([]*algebra.PredInfo, error) {
	if len(ps) == 0 {
		return nil, nil
	}
	out := carve(&cl.predSlab, len(ps))
	for i, p := range ps {
		j := slices.Index(cl.from, p)
		if j < 0 || j >= len(cl.to) {
			return nil, fmt.Errorf("memo: join predicate %v has no counterpart in the query", p.Expr)
		}
		out[i] = cl.to[j]
	}
	return out, nil
}

func (cl *cloner) lookup(s *LookupSpec) (*LookupSpec, error) {
	if s == nil {
		return nil, nil
	}
	rel, err := cl.rel(s.Rel)
	if err != nil {
		return nil, err
	}
	ns := &carve(&cl.lookups, 1)[0]
	*ns = LookupSpec{Rel: rel, Index: s.Index, OuterKeys: carve(&cl.cols, len(s.OuterKeys)), InnerKeys: carve(&cl.cols, len(s.InnerKeys))}
	for i, k := range s.OuterKeys {
		if ns.OuterKeys[i], err = cl.col(k); err != nil {
			return nil, err
		}
	}
	for i, k := range s.InnerKeys {
		if ns.InnerKeys[i], err = cl.col(k); err != nil {
			return nil, err
		}
	}
	return ns, nil
}

// col returns the copy's base column standing for template column k.
func (cl *cloner) col(k algebra.Column) (algebra.Column, error) {
	rels := cl.c.Query.Rels
	if k.Rel < 0 || k.Rel >= len(rels) || k.ColIdx < 0 || k.ColIdx >= len(rels[k.Rel].Cols) {
		return algebra.Column{}, fmt.Errorf("memo: column %s is not in the query", k.Name)
	}
	return rels[k.Rel].Cols[k.ColIdx], nil
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
