package exec

import (
	"context"
	"fmt"

	"repro/internal/data"
	"repro/internal/memo"
)

// buildJoin compiles one of the three join implementations. All three
// re-check the full predicate conjunction on each candidate pair, through
// the kernels compileConjunction chose for it, so hash buckets and merge
// blocks act purely as accelerators — semantics are identical across
// implementations, which is exactly what multi-plan verification checks.
func buildJoin(e *memo.Expr, left Iterator, ls schema, right Iterator, rs schema) (Iterator, schema, error) {
	out := ls.concat(rs)
	pred, err := compileJoinPreds(e.Join, out)
	if err != nil {
		return nil, nil, err
	}

	switch e.Op {
	case memo.NestedLoopJoin:
		return &nlJoinIter{left: left, right: right, pred: pred, out: newJoinRow(ls, rs)}, out, nil
	case memo.HashJoin, memo.MergeJoin:
		lKeys, rKeys := e.Join.Keys(e.Children[0].RelSet)
		if len(lKeys) == 0 {
			return nil, nil, fmt.Errorf("exec: %s has no equi-join keys", e.Name())
		}
		lPos := make([]int, len(lKeys))
		rPos := make([]int, len(rKeys))
		for i := range lKeys {
			lPos[i] = ls.pos(lKeys[i].ID)
			rPos[i] = rs.pos(rKeys[i].ID)
			if lPos[i] < 0 || rPos[i] < 0 {
				return nil, nil, fmt.Errorf("exec: join key missing from child schema in %s", e.Name())
			}
		}
		keys := make([]data.Value, len(lKeys))
		if e.Op == memo.HashJoin {
			return &hashJoinIter{left: left, right: right, lPos: lPos, rPos: rPos, pred: pred,
				keys: keys, enc: newJoinKeyEncoder(lKeys, rKeys), out: newJoinRow(ls, rs)}, out, nil
		}
		return &mergeJoinIter{left: left, right: right, lPos: lPos, rPos: rPos, pred: pred,
			lkey: keys, out: newJoinRow(ls, rs)}, out, nil
	default:
		return nil, nil, fmt.Errorf("exec: %s is not a join", e.Op)
	}
}

// joinRow is a join's reused output row: the left input's columns
// followed by the right input's. A join copies the side that stays fixed
// across several output rows (the outer row of a nested loop, the probe
// row of a hash join) once, and only the other side per candidate pair.
type joinRow struct {
	row   data.Row
	split int // number of left columns
}

func newJoinRow(ls, rs schema) joinRow {
	return joinRow{row: make(data.Row, len(ls)+len(rs)), split: len(ls)}
}

func (o joinRow) setLeft(r data.Row)  { copy(o.row[:o.split], r) }
func (o joinRow) setRight(r data.Row) { copy(o.row[o.split:], r) }

// nlJoinIter re-executes its inner (right) child once per outer row.
type nlJoinIter struct {
	opNode
	left, right Iterator
	pred        conjunction
	out         joinRow

	ctx     context.Context
	hasLeft bool
}

func (j *nlJoinIter) Open(ctx context.Context) error {
	j.ctx = ctx
	j.hasLeft = false
	if err := j.enter(); err != nil {
		return err
	}
	return j.left.Open(ctx)
}

func (j *nlJoinIter) Next() (data.Row, bool, error) {
	for {
		if !j.hasLeft {
			lr, ok, err := j.left.Next()
			if err != nil || !ok {
				return nil, false, err
			}
			j.out.setLeft(lr)
			j.hasLeft = true
			if err := j.right.Open(j.ctx); err != nil {
				return nil, false, err
			}
		}
		rr, ok, err := j.right.Next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			j.hasLeft = false
			continue
		}
		j.out.setRight(rr)
		keep, err := j.pred.keep(j.out.row)
		if err != nil {
			return nil, false, err
		}
		if !keep {
			// The candidate pair was already charged through the
			// inner child's emission; no extra work tick here.
			continue
		}
		if err := j.emit(); err != nil {
			return nil, false, err
		}
		return j.out.row, true, nil
	}
}

func (j *nlJoinIter) Close() error {
	err := closeAll(j.left, j.right)
	j.leave()
	return err
}

// extractKey copies the key columns of r into keys and reports whether
// any of them is NULL (NULL keys never join).
func extractKey(keys []data.Value, r data.Row, pos []int) (null bool) {
	for i, p := range pos {
		keys[i] = r[p]
		null = null || r[p].IsNull()
	}
	return null
}

// hashTable is a hash join's build side: rows chained per key in
// insertion order, so probes emit matches in the order the build input
// produced them.
type hashTable struct {
	chains     map[string]int32 // key -> chain
	head, tail []int32          // per chain: first and last row
	rows       []data.Row
	next       []int32 // per row: the next row of its chain, or -1
	store      rowStore
}

func (h *hashTable) insert(key []byte, r data.Row) {
	ri := int32(len(h.rows))
	h.rows = append(h.rows, h.store.keep(r))
	h.next = append(h.next, -1)
	if c, ok := h.chains[string(key)]; ok {
		h.next[h.tail[c]] = ri
		h.tail[c] = ri
		return
	}
	h.chains[string(key)] = int32(len(h.head))
	h.head = append(h.head, ri)
	h.tail = append(h.tail, ri)
}

// first returns the first row of key's chain, or -1.
func (h *hashTable) first(key []byte) int32 {
	if c, ok := h.chains[string(key)]; ok {
		return h.head[c]
	}
	return -1
}

// hashJoinIter builds a hash table on the left child (as the cost model
// assumes) and probes it with right rows. The build is cached across
// re-Opens: a sub-plan produces identical rows within one execution, so a
// nested-loop parent re-opening this join only restarts the probe side.
type hashJoinIter struct {
	opNode
	left, right Iterator
	lPos, rPos  []int
	pred        conjunction
	keys        []data.Value
	enc         keyEncoder
	out         joinRow

	table *hashTable
	cand  int32 // next build row matching the current probe row, or -1
}

func (j *hashJoinIter) Open(ctx context.Context) error {
	j.cand = -1
	if err := j.enter(); err != nil {
		return err
	}
	if j.table == nil {
		if err := j.left.Open(ctx); err != nil {
			return err
		}
		h := &hashTable{chains: make(map[string]int32), store: newRowStore(j.left)}
		for {
			lr, ok, err := j.left.Next()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			if extractKey(j.keys, lr, j.lPos) {
				continue // NULL keys never join
			}
			h.insert(j.enc.encode(j.keys), lr)
		}
		if err := j.left.Close(); err != nil {
			return err
		}
		j.table = h
	}
	return j.right.Open(ctx)
}

func (j *hashJoinIter) Next() (data.Row, bool, error) {
	for {
		if j.cand >= 0 {
			j.out.setLeft(j.table.rows[j.cand])
			j.cand = j.table.next[j.cand]
			keep, err := j.pred.keep(j.out.row)
			if err != nil {
				return nil, false, err
			}
			if !keep {
				// Bucket candidates come from the materialized build
				// side, so rejected pairs charge the work budget here.
				if err := j.examine(); err != nil {
					return nil, false, err
				}
				continue
			}
			if err := j.emit(); err != nil {
				return nil, false, err
			}
			return j.out.row, true, nil
		}
		rr, ok, err := j.right.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		if extractKey(j.keys, rr, j.rPos) {
			continue
		}
		if j.cand = j.table.first(j.enc.encode(j.keys)); j.cand >= 0 {
			j.out.setRight(rr)
		}
	}
}

func (j *hashJoinIter) Close() error {
	// The left child is normally closed at the end of the build phase,
	// but an error mid-build leaves it open — Close cascades to both
	// sides unconditionally (children track their own open state).
	err := closeAll(j.left, j.right)
	j.leave()
	return err
}

// mergeJoinIter merges two inputs sorted on the join keys (guaranteed by
// the operator's required orderings). The right input is materialized so
// duplicate-key blocks can be re-scanned per matching left row.
type mergeJoinIter struct {
	opNode
	left, right Iterator
	lPos, rPos  []int
	pred        conjunction
	lkey        []data.Value
	out         joinRow

	rightRows []data.Row
	loaded    bool

	inBlock  bool
	bstart   int
	blockEnd int
	blockPos int
}

func (j *mergeJoinIter) Open(ctx context.Context) error {
	if err := j.enter(); err != nil {
		return err
	}
	if !j.loaded {
		if err := j.right.Open(ctx); err != nil {
			return err
		}
		store := newRowStore(j.right)
		for {
			rr, ok, err := j.right.Next()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			j.rightRows = append(j.rightRows, store.keep(rr))
		}
		if err := j.right.Close(); err != nil {
			return err
		}
		j.loaded = true
	}
	j.inBlock = false
	j.bstart, j.blockEnd, j.blockPos = 0, 0, 0
	return j.left.Open(ctx)
}

func (j *mergeJoinIter) rightKeyCmp(idx int, lkey []data.Value) (int, error) {
	rr := j.rightRows[idx]
	for i, p := range j.rPos {
		c, err := data.Compare(rr[p], lkey[i])
		if err != nil {
			return 0, err
		}
		if c != 0 {
			return c, nil
		}
	}
	return 0, nil
}

func (j *mergeJoinIter) Next() (data.Row, bool, error) {
	lkey := j.lkey
	for {
		if !j.inBlock {
			lr, ok, err := j.left.Next()
			if err != nil || !ok {
				return nil, false, err
			}
			if extractKey(lkey, lr, j.lPos) {
				continue
			}
			// Advance to the first right row with key >= left key; rows
			// with NULL key components sort first and are stepped over.
			for j.bstart < len(j.rightRows) {
				if j.rightHasNullKey(j.bstart) {
					j.bstart++
					continue
				}
				c, err := j.rightKeyCmp(j.bstart, lkey)
				if err != nil {
					return nil, false, err
				}
				if c >= 0 {
					break
				}
				j.bstart++
			}
			// Extend the block of equal keys.
			j.blockEnd = j.bstart
			for j.blockEnd < len(j.rightRows) {
				c, err := j.rightKeyCmp(j.blockEnd, lkey)
				if err != nil {
					return nil, false, err
				}
				if c != 0 {
					break
				}
				j.blockEnd++
			}
			if j.blockEnd == j.bstart {
				continue // no matches for this left row
			}
			j.out.setLeft(lr)
			j.inBlock = true
			j.blockPos = j.bstart
		}
		for j.blockPos < j.blockEnd {
			j.out.setRight(j.rightRows[j.blockPos])
			j.blockPos++
			keep, err := j.pred.keep(j.out.row)
			if err != nil {
				return nil, false, err
			}
			if !keep {
				// Re-scanned block candidates are materialized rows;
				// rejected pairs charge the work budget here.
				if err := j.examine(); err != nil {
					return nil, false, err
				}
				continue
			}
			if err := j.emit(); err != nil {
				return nil, false, err
			}
			return j.out.row, true, nil
		}
		j.inBlock = false
	}
}

func (j *mergeJoinIter) rightHasNullKey(idx int) bool {
	rr := j.rightRows[idx]
	for _, p := range j.rPos {
		if rr[p].IsNull() {
			return true
		}
	}
	return false
}

func (j *mergeJoinIter) Close() error {
	// The right child is normally closed after materialization, but an
	// error mid-load leaves it open — cascade to both sides.
	err := closeAll(j.left, j.right)
	j.leave()
	return err
}
