package exec

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/data"
	"repro/internal/memo"
)

// buildJoin compiles one of the three join implementations. All three
// re-check the full predicate conjunction on each candidate pair, through
// the kernels compileConjunction chose for it, so hash buckets and merge
// blocks act purely as accelerators — semantics are identical across
// implementations, which is exactly what multi-plan verification checks.
func (b *builder) buildJoin(e *memo.Expr, left Iterator, ls schema, right Iterator, rs schema) (Iterator, schema, error) {
	out := ls.concat(rs)
	pred, err := compileJoinPreds(b.strs, e.Join, out)
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
		if e.Op == memo.HashJoin {
			viaFloat, apart := joinKeyRules(lKeys, rKeys)
			return &hashJoinIter{left: left, right: right, lPos: lPos, rPos: rPos, viaFloat: viaFloat, apart: apart,
				pred: pred, out: newJoinRow(ls, rs), key: make([]uint64, len(lKeys))}, out, nil
		}
		return &mergeJoinIter{left: left, right: right, lPos: lPos, rPos: rPos, pred: pred,
			lkey: make([]data.Value, len(lKeys)), strs: b.strs, out: newJoinRow(ls, rs)}, out, nil
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

// hashTable is a hash join's build side: its rows, k key words per row
// (keyWords), and bucket chains over them. It is sized from the rows
// already materialized, so it never grows: heads has a power-of-two
// length of at least the row count, and next links each bucket's rows
// in build order. The rows of one bucket whose words equal a probe
// key's are therefore the probe's matches in the order the build input
// produced them.
type hashTable struct {
	rows  []data.Row
	words []uint64
	heads []int32 // per bucket: its first row, or -1
	next  []int32 // per row: the next row of its bucket, or -1
	shift uint    // 64 - log2(len(heads))
}

// index chains the rows into buckets.
func (h *hashTable) index(k int) {
	n := len(h.rows)
	bits := 0
	for 1<<bits < n {
		bits++
	}
	h.shift = uint(64 - bits)
	h.heads = make([]int32, 1<<bits)
	for b := range h.heads {
		h.heads[b] = -1
	}
	h.next = make([]int32, n)
	for i := n - 1; i >= 0; i-- {
		b := h.bucket(h.words[i*k : i*k+k])
		h.next[i], h.heads[b] = h.heads[b], int32(i)
	}
}

// bucket hashes key words by Fibonacci hashing: the product's top bits
// depend on every bit of every word.
func (h *hashTable) bucket(key []uint64) int {
	var x uint64
	for _, w := range key {
		x = (x ^ w) * 0x9e3779b97f4a7c15
	}
	return int(x >> h.shift)
}

// seek returns the first row from i on along its bucket's chain whose
// key words equal key, or -1. Rows with other words share the bucket
// only by their hash and are passed over unexamined.
func (h *hashTable) seek(i int32, key []uint64) int32 {
	if k := len(key); k > 1 {
		for ; i >= 0; i = h.next[i] {
			if slices.Equal(h.words[int(i)*k:int(i)*k+k], key) {
				return i
			}
		}
		return -1
	}
	for i >= 0 && h.words[i] != key[0] {
		i = h.next[i]
	}
	return i
}

// hashJoinIter builds a hash table on the left child (as the cost model
// assumes) and probes it with right rows. The build is cached across
// re-Opens: a sub-plan produces identical rows within one execution, so a
// nested-loop parent re-opening this join only restarts the probe side.
type hashJoinIter struct {
	opNode
	left, right Iterator
	lPos, rPos  []int
	viaFloat    []bool // per key position: hash as float64; nil = none
	apart       bool   // the key kinds never compare equal
	pred        conjunction
	out         joinRow
	key         []uint64 // the key words of the row being added or probed

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
		h := &hashTable{}
		store := newRowStore(j.left)
		for {
			lr, ok, err := j.left.Next()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			if j.apart || !keyWords(j.key, lr, j.lPos, j.viaFloat) {
				continue // the row can never join
			}
			h.rows = append(h.rows, store.keep(lr))
			h.words = append(h.words, j.key...)
		}
		if err := j.left.Close(); err != nil {
			return err
		}
		h.index(len(j.key))
		j.table = h
	}
	return j.right.Open(ctx)
}

func (j *hashJoinIter) Next() (data.Row, bool, error) {
	t := j.table
	for {
		if j.cand >= 0 {
			i := j.cand
			j.out.setLeft(t.rows[i])
			j.cand = t.seek(t.next[i], j.key)
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
		if !keyWords(j.key, rr, j.rPos, j.viaFloat) {
			continue
		}
		if j.cand = t.seek(t.heads[t.bucket(j.key)], j.key); j.cand >= 0 {
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
	strs        *data.Strings // orders string keys by text
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
		c, err := data.Compare(j.strs, rr[p], lkey[i])
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
