package exec

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/algebra"
	"repro/internal/data"
	"repro/internal/memo"
	"repro/internal/plan"
	"repro/internal/storage"
)

// Iterator is the Volcano iteration contract. Open (re)starts the
// iterator: nested-loop joins re-Open their inner child once per outer
// row, so every iterator must support repeated Open calls; materializing
// iterators (sort, hash structures) may cache their state across re-Opens
// because a sub-plan always produces the same rows within one execution.
// Open takes no context: the Governor the tree shares holds it and
// polls it on every Open and every DefaultCheckEvery rows.
//
// Close must be safe to call at any point after Build — before Open,
// mid-stream after an error from Next, or repeatedly — and must cascade
// to every child each time: the mid-stream error contract is that one
// root Close tears the whole tree down, which the Governor's lifecycle
// audit (OpenIterators == 0) verifies.
type Iterator interface {
	Open() error
	// Next returns the next row. ok is false at end of stream.
	//
	// The row is valid until the next Next or Close on the same
	// iterator: joins and aggregates write every output row into one
	// reused buffer. A join's row holds only the columns its
	// predicates or an operator above it read, while a scan returns
	// its stored rows whole. A caller that keeps rows beyond that goes
	// through load, which copies them when the child reuses its rows;
	// RunWithOptions copies every row it returns.
	Next() (row data.Row, ok bool, err error)
	Close() error

	// bind hands a freshly built iterator its governor and operator
	// identity; every iterator gets it by embedding opNode.
	bind(gov *Governor, e *memo.Expr)
}

// Build compiles a physical plan into an iterator tree over db. Every
// iterator in the tree shares gov, which charges each intermediate row
// against the caller's budgets and audits Open/Close transitions. The
// string constants the plan materializes are coded in a table private
// to the tree; RunWithOptions returns that table as Result.Strings.
// p is a whole plan, rooted at its Result: each join keeps only the
// columns the operators above it read. gov must not have governed a
// Build before (nil gives a fresh, unlimited one).
func Build(p *plan.Node, db *storage.DB, q *algebra.Query, gov *Governor) (Iterator, error) {
	if gov != nil && gov.ops != nil {
		return nil, errors.New("exec: the Governor has governed a Build already")
	}
	it, _, err := newBuilder(db, q, gov, p).build(p)
	return it, err
}

// builder compiles one plan. Its iterators share the Governor and one
// string table, strs: an overlay of the DB's table, so that string
// constants the plan materializes get codes without growing the DB's.
//
// reads counts, per column ID, the reads of that column by the
// operators on the path from the root to the operator being built, its
// own reads included. A join keeps in its output row exactly the
// columns of its inputs with a count.
type builder struct {
	db    *storage.DB
	q     *algebra.Query
	gov   *Governor
	strs  *data.Strings
	reads []int32
}

// newBuilder returns a builder for plan p, sizing the operator slots of
// gov, a Governor that has governed no Build, for p's operators.
func newBuilder(db *storage.DB, q *algebra.Query, gov *Governor, p *plan.Node) *builder {
	if gov == nil {
		gov = NewGovernor(context.Background(), Options{})
	}
	gov.ops = make([]opSlot, 0, countOps(p))
	return &builder{db: db, q: q, gov: gov, strs: db.Strings().Overlay(), reads: make([]int32, q.NumColumns())}
}

func countOps(n *plan.Node) int {
	c := 1
	for _, ch := range n.Children {
		c += countOps(ch)
	}
	return c
}

func (b *builder) build(n *plan.Node) (Iterator, schema, error) {
	b.markReads(n.Expr, 1)
	it, sch, err := b.buildOp(n)
	b.markReads(n.Expr, -1)
	if err != nil {
		return nil, nil, err
	}
	it.bind(b.gov, n.Expr)
	return it, sch, nil
}

// markReads adds d to the read count of every input column e reads: a
// Result's projections and ORDER BY, an aggregate's group keys and
// arguments, a sort's keys, a join's predicates (which hold its keys).
func (b *builder) markReads(e *memo.Expr, d int32) {
	read := func(x algebra.Scalar) {
		algebra.ColumnsIn(x, func(c algebra.Column) { b.reads[c.ID] += d })
	}
	switch e.Op {
	case memo.Result:
		for _, p := range b.q.Projections {
			read(p.Expr)
		}
	case memo.HashAgg, memo.StreamAgg:
		for _, g := range b.q.GroupBy {
			read(g.Expr)
		}
		for _, a := range b.q.Aggs {
			if a.Arg != nil {
				read(a.Arg)
			}
		}
	case memo.HashJoin, memo.MergeJoin, memo.NestedLoopJoin, memo.IndexNLJoin:
		for _, p := range e.Join.Equi {
			read(p.Expr)
		}
		for _, p := range e.Join.Residual {
			read(p.Expr)
		}
	}
	for _, oc := range e.SortOrder {
		b.reads[oc.Col] += d
	}
}

func (b *builder) buildOp(n *plan.Node) (Iterator, schema, error) {
	e := n.Expr
	switch e.Op {
	case memo.TableScan, memo.IndexScan:
		return b.buildScan(e)

	case memo.HashJoin, memo.MergeJoin, memo.NestedLoopJoin:
		left, ls, err := b.build(n.Children[0])
		if err != nil {
			return nil, nil, err
		}
		right, rs, err := b.build(n.Children[1])
		if err != nil {
			return nil, nil, err
		}
		return b.buildJoin(e, left, ls, right, rs)

	case memo.IndexNLJoin:
		outer, os, err := b.build(n.Children[0])
		if err != nil {
			return nil, nil, err
		}
		return b.buildLookupJoin(e, outer, os)

	case memo.HashAgg, memo.StreamAgg:
		child, cs, err := b.build(n.Children[0])
		if err != nil {
			return nil, nil, err
		}
		return b.buildAgg(e, child, cs)

	case memo.Sort:
		child, cs, err := b.build(n.Children[0])
		if err != nil {
			return nil, nil, err
		}
		it, err := newSortIter(child, cs, e.SortOrder, b.strs, nil)
		return it, cs, err

	case memo.Result:
		child, cs, err := b.build(n.Children[0])
		if err != nil {
			return nil, nil, err
		}
		return b.buildResult(e, child, cs)

	default:
		return nil, nil, fmt.Errorf("exec: cannot execute operator %s (%s)", e.Op, e.Name())
	}
}

// reusesRows reports whether it, as the child of another operator,
// overwrites the row returned by one Next call on the next one. Joins
// and aggregates do; scans return stored table rows, and sorts rows
// they never modify again. (The streaming Result reuses its row too,
// but it is always the plan root.)
func reusesRows(it Iterator) bool {
	switch it.(type) {
	case *nlJoinIter, *hashJoinIter, *rangeJoinIter, *aggIter:
		return true
	}
	return false
}

// load opens child, appends every row it produces to rows and closes
// it: the one way a materializing operator (a sort, a hash join's build
// side, a merge join's right input) keeps its input. A kept row is
// copied only when the child reuses its rows or proj is non-empty; the
// copy is then the child's values followed by the projections' values
// over them, carved from a rowStore. A join child's rows are already
// narrowed to the columns read above it, so load copies those only;
// scans' and sorts' rows are kept by reference.
func load(child Iterator, rows []data.Row, proj []evalFunc) ([]data.Row, error) {
	if err := child.Open(); err != nil {
		return rows, err
	}
	copied := len(proj) > 0 || reusesRows(child)
	var store rowStore
	for {
		row, ok, err := child.Next()
		if err != nil {
			return rows, err
		}
		if !ok {
			break
		}
		if copied {
			kept := store.alloc(len(row) + len(proj))
			copy(kept, row)
			for i, f := range proj {
				if kept[len(row)+i], err = f(row); err != nil {
					return rows, err
				}
			}
			row = kept
		}
		rows = append(rows, row)
	}
	return rows, child.Close()
}

// rowStore carves rows from slabs that grow with the rows carved, so
// carving n rows costs O(log n) allocations, not n.
type rowStore struct {
	slab []data.Value
	size int // values in the last slab allocated
}

// alloc returns a fresh row of n values carved from the current slab.
func (s *rowStore) alloc(n int) data.Row {
	if len(s.slab) < n {
		s.size = min(max(2*s.size, 16*n), 1024*n)
		s.slab = make([]data.Value, s.size)
	}
	out := s.slab[:n:n]
	s.slab = s.slab[n:]
	return out
}
