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
		keys := make([]data.Value, len(lKeys))
		if e.Op == memo.HashJoin {
			// Join keys are base columns, whose stored values all have
			// the declared kind (Table.Insert checks), so one kind on
			// both sides keeps wordKey a superset of equality.
			word := len(lKeys) == 1 && wordKeyed(lKeys[0].Kind, rKeys[0].Kind)
			return &hashJoinIter{left: left, right: right, lPos: lPos, rPos: rPos, pred: pred,
				keys: keys, word: word, enc: newJoinKeyEncoder(lKeys, rKeys), out: newJoinRow(ls, rs)}, out, nil
		}
		return &mergeJoinIter{left: left, right: right, lPos: lPos, rPos: rPos, pred: pred,
			lkey: keys, strs: b.strs, out: newJoinRow(ls, rs)}, out, nil
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
// produced them. A single-column key of one kind is chained by its
// 8-byte wordKey in words, any other key by its encoding in chains.
// Each chain is circular: its tail links back to its head.
type hashTable struct {
	words  map[uint64]int32 // wordKey -> chain
	chains map[string]int32 // encoded key -> chain
	tails  []int32          // per chain: its last row
	rows   []chainedRow
	store  rowStore
}

type chainedRow struct {
	row  data.Row
	next int32 // the next row of its chain; the tail's is the head
}

// add appends r to chain c, or to a new chain when found is false, and
// returns the chain.
func (h *hashTable) add(c int32, found bool, r data.Row) int32 {
	ri := int32(len(h.rows))
	next := ri
	if found {
		t := h.tails[c]
		next, h.rows[t].next = h.rows[t].next, ri
		h.tails[c] = ri
	} else {
		c = int32(len(h.tails))
		h.tails = append(h.tails, ri)
	}
	h.rows = append(h.rows, chainedRow{row: h.store.keep(r), next: next})
	return c
}

// span returns the first and last rows of chain c, or -1, -1 when found
// is false.
func (h *hashTable) span(c int32, found bool) (first, last int32) {
	if !found {
		return -1, -1
	}
	last = h.tails[c]
	return h.rows[last].next, last
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
	word        bool // single-column key of one kind: hash by wordKey
	enc         keyEncoder
	out         joinRow

	table *hashTable
	cand  int32 // next build row matching the current probe row, or -1
	last  int32 // the last build row matching it
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
		h := &hashTable{store: newRowStore(j.left)}
		if j.word {
			h.words = make(map[uint64]int32)
		} else {
			h.chains = make(map[string]int32)
		}
		for {
			lr, ok, err := j.left.Next()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			if j.word {
				v := lr[j.lPos[0]]
				if v.IsNull() {
					continue // NULL keys never join
				}
				k := wordKey(v)
				c, found := h.words[k]
				if c = h.add(c, found, lr); !found {
					h.words[k] = c
				}
				continue
			}
			if extractKey(j.keys, lr, j.lPos) {
				continue
			}
			k := j.enc.encode(j.keys)
			c, found := h.chains[string(k)]
			if c = h.add(c, found, lr); !found {
				h.chains[string(k)] = c
			}
		}
		if err := j.left.Close(); err != nil {
			return err
		}
		j.table = h
	}
	return j.right.Open(ctx)
}

// probe returns the first and last build rows whose key matches rr's,
// or -1, -1.
func (j *hashJoinIter) probe(rr data.Row) (int32, int32) {
	if j.word {
		v := rr[j.rPos[0]]
		if v.IsNull() {
			return -1, -1
		}
		c, found := j.table.words[wordKey(v)]
		return j.table.span(c, found)
	}
	if extractKey(j.keys, rr, j.rPos) {
		return -1, -1
	}
	c, found := j.table.chains[string(j.enc.encode(j.keys))]
	return j.table.span(c, found)
}

func (j *hashJoinIter) Next() (data.Row, bool, error) {
	for {
		if j.cand >= 0 {
			cr := &j.table.rows[j.cand]
			j.out.setLeft(cr.row)
			if j.cand == j.last {
				j.cand = -1
			} else {
				j.cand = cr.next
			}
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
		if j.cand, j.last = j.probe(rr); j.cand >= 0 {
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
