package exec

import (
	"fmt"
	"slices"

	"repro/internal/algebra"
	"repro/internal/plan"
	"repro/internal/storage"
)

// HashBucket returns the bucket a hash join's table over n build rows
// gives the single-column key word w.
func HashBucket(n int, w uint64) int {
	h := &hashTable{k: 1, words: make([]uint64, n)}
	h.index()
	return h.bucket([]uint64{w})
}

// JoinLayout is the output row layout Build gave one join of a plan.
type JoinLayout struct {
	Node        *plan.Node
	Left, Right []algebra.ColID // the columns of the join's input rows
	// The columns of the join's output row: the block gathered from its
	// left input, then the block gathered from its right input. The
	// first LeftPreds and RightPreds columns of the blocks are gathered
	// before the join's predicates run.
	OutLeft, OutRight     []algebra.ColID
	LeftPreds, RightPreds int
}

// JoinLayouts builds p and returns the layout of each of its joins,
// inputs before the joins above them. The columns of every row are read
// back from the built tree: a scan's rows are its relation's stored
// rows, a sort's its child's, and a join's the columns its gather maps
// pick from its inputs' rows.
func JoinLayouts(p *plan.Node, db *storage.DB, q *algebra.Query) ([]JoinLayout, error) {
	it, err := Build(p, db, q, nil, nil)
	if err != nil {
		return nil, err
	}
	var out []JoinLayout
	relCols := func(rel *algebra.BaseRel) schema {
		s := make(schema, len(rel.Cols))
		for i, c := range rel.Cols {
			s[i] = c.ID
		}
		return s
	}
	join := func(n *plan.Node, r joinRow, ls, rs schema) schema {
		l := JoinLayout{Node: n, Left: ls, Right: rs, LeftPreds: r.left.npred, RightPreds: r.right.npred}
		for _, p := range r.left.src {
			l.OutLeft = append(l.OutLeft, ls[p])
		}
		for _, p := range r.right.src {
			l.OutRight = append(l.OutRight, rs[p])
		}
		out = append(out, l)
		return append(slices.Clone(l.OutLeft), l.OutRight...)
	}
	var walk func(it Iterator, n *plan.Node) schema
	walk = func(it Iterator, n *plan.Node) schema {
		switch it := it.(type) {
		case *scanIter:
			return relCols(n.Expr.Scan.Rel)
		case *sortIter:
			return walk(it.child, n.Children[0]) // a Sort's rows are its child's
		case *resultIter:
			return walk(it.child, n.Children[0])
		case *aggIter:
			return walk(it.child, n.Children[0])
		case *nlJoinIter:
			return join(n, it.out, walk(it.left, n.Children[0]), walk(it.right, n.Children[1]))
		case *hashJoinIter:
			return join(n, it.out, walk(it.left, n.Children[0]), walk(it.right, n.Children[1]))
		case *rangeJoinIter:
			ls := walk(it.outer, n.Children[0])
			if it.inner == nil {
				return join(n, it.out, ls, relCols(n.Expr.Lookup.Rel))
			}
			return join(n, it.out, ls, walk(it.inner, n.Children[1]))
		}
		panic(fmt.Sprintf("JoinLayouts: unexpected iterator %T", it))
	}
	walk(it, p)
	return out, nil
}

// Published returns the table size the bitmap published for relation
// rel covers, or -1 when none is published.
func (s *Selections) Published(rel int) int {
	if sel := s.slots[rel].Load(); sel != nil {
		return sel.rows
	}
	return -1
}
