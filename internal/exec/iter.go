package exec

import (
	"context"
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
//
// Close must be safe to call at any point after Build — before Open,
// mid-stream after an error from Next, or repeatedly — and must cascade
// to every child each time: the mid-stream error contract is that one
// root Close tears the whole tree down, which the Governor's lifecycle
// audit (OpenIterators == 0) verifies.
type Iterator interface {
	Open(ctx context.Context) error
	// Next returns the next row. ok is false at end of stream.
	//
	// The row is valid until the next Next or Close on the same
	// iterator: joins write every output row into one reused buffer.
	// A caller that keeps rows beyond that copies them (see rowStore);
	// RunWithOptions copies every row it returns.
	Next() (row data.Row, ok bool, err error)
	Close() error
}

// Build compiles a physical plan into an iterator tree over db. Every
// iterator in the tree shares gov, which charges each intermediate row
// against the caller's budgets and audits Open/Close transitions.
func Build(p *plan.Node, db *storage.DB, q *algebra.Query, gov *Governor) (Iterator, error) {
	if gov == nil {
		gov = NewGovernor(context.Background(), Options{})
	}
	it, _, err := build(p, db, q, gov)
	return it, err
}

func build(n *plan.Node, db *storage.DB, q *algebra.Query, gov *Governor) (Iterator, schema, error) {
	e := n.Expr
	it, sch, err := buildOp(n, db, q, gov)
	if err != nil {
		return nil, nil, err
	}
	if b, ok := it.(binder); ok {
		b.bind(gov, e)
	} else {
		return nil, nil, fmt.Errorf("exec: iterator for %s does not embed opNode", e.Name())
	}
	return it, sch, nil
}

func buildOp(n *plan.Node, db *storage.DB, q *algebra.Query, gov *Governor) (Iterator, schema, error) {
	e := n.Expr
	switch e.Op {
	case memo.TableScan, memo.IndexScan:
		return buildScan(e, db)

	case memo.HashJoin, memo.MergeJoin, memo.NestedLoopJoin:
		left, ls, err := build(n.Children[0], db, q, gov)
		if err != nil {
			return nil, nil, err
		}
		right, rs, err := build(n.Children[1], db, q, gov)
		if err != nil {
			return nil, nil, err
		}
		return buildJoin(e, left, ls, right, rs)

	case memo.IndexNLJoin:
		outer, os, err := build(n.Children[0], db, q, gov)
		if err != nil {
			return nil, nil, err
		}
		return buildLookupJoin(e, db, outer, os)

	case memo.HashAgg, memo.StreamAgg:
		child, cs, err := build(n.Children[0], db, q, gov)
		if err != nil {
			return nil, nil, err
		}
		return buildAgg(e, q, child, cs)

	case memo.Sort:
		child, cs, err := build(n.Children[0], db, q, gov)
		if err != nil {
			return nil, nil, err
		}
		it, err := newSortIter(child, cs, e.SortOrder)
		return it, cs, err

	case memo.Result:
		child, cs, err := build(n.Children[0], db, q, gov)
		if err != nil {
			return nil, nil, err
		}
		return buildResult(e, q, child, cs)

	default:
		return nil, nil, fmt.Errorf("exec: cannot execute operator %s (%s)", e.Op, e.Name())
	}
}

// reusesRows reports whether it, as the child of another operator,
// overwrites the row returned by one Next call on the next one. Joins
// do; scans return stored table rows, and sorts and aggregates return
// rows they never modify again. (The streaming Result reuses its row
// too, but it is always the plan root.)
func reusesRows(it Iterator) bool {
	switch it.(type) {
	case *nlJoinIter, *hashJoinIter, *mergeJoinIter, *lookupJoinIter:
		return true
	}
	return false
}

// rowStore holds the rows a materializing operator keeps (a hash
// join's build side, a merge join's right input, a sort buffer). Rows
// whose producer reuses them are copied into slabs that grow with the
// input, so keeping n rows costs O(log n) allocations, not n.
type rowStore struct {
	copy bool // the producer reuses its rows: keep copies
	slab []data.Value
	size int // values in the last slab allocated
}

func newRowStore(child Iterator) rowStore { return rowStore{copy: reusesRows(child)} }

// keep returns r itself, or a copy of it when the producer reuses rows.
func (s *rowStore) keep(r data.Row) data.Row {
	if !s.copy {
		return r
	}
	out := s.alloc(len(r))
	copy(out, r)
	return out
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
