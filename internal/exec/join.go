package exec

import (
	"fmt"
	"slices"

	"repro/internal/algebra"
	"repro/internal/data"
	"repro/internal/memo"
)

// buildJoin compiles a nested-loop, hash or merge join. Every join
// re-checks the full predicate conjunction on each candidate pair, through
// the kernels compileConjunction chose for it, so hash buckets and key
// runs act purely as accelerators — semantics are identical across
// implementations, which is exactly what multi-plan verification checks.
func (b *builder) buildJoin(e *memo.Expr, left Iterator, ls schema, right Iterator, rs schema) (Iterator, schema, error) {
	row, out := b.newJoinRow(e.Join, ls, rs)
	pred, err := compileJoinPreds(b.strs, e.Join, out)
	if err != nil {
		return nil, nil, err
	}

	switch e.Op {
	case memo.NestedLoopJoin:
		return &nlJoinIter{left: left, right: right, pred: pred, out: row}, out, nil
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
				pred: pred, out: row, key: make([]uint64, len(lKeys))}, out, nil
		}
		return &rangeJoinIter{outer: left, inner: right, outerPos: lPos, innerPos: rPos, pred: pred,
			key: make([]data.Value, len(lKeys)), strs: b.strs, out: row}, out, nil
	default:
		return nil, nil, fmt.Errorf("exec: %s is not a join", e.Op)
	}
}

// joinRow is a join's reused output row: the columns it keeps of its
// left input followed by those of its right input. Each input fills its
// block through a gather map. A join gathers the side that stays fixed
// across several output rows (the outer row of a nested loop or range
// join, the probe row of a hash join) once. Of the other side's
// candidate row it gathers the predicate columns, and the rest only
// when the predicates accept the pair.
type joinRow struct {
	row         data.Row
	left, right gather
}

// gather copies the columns a join keeps of one input row into that
// input's block of the output row: out[i] = in[src[i]]. The first npred
// of them are the columns the join's predicates read.
type gather struct {
	out   data.Row
	src   []int
	npred int
}

func (g *gather) all(in data.Row) {
	g.preds(in)
	g.rest(in)
}

func (g *gather) preds(in data.Row) {
	out := g.out[:g.npred]
	for i, p := range g.src[:g.npred] {
		out[i] = in[p]
	}
}

func (g *gather) rest(in data.Row) {
	out := g.out[g.npred:len(g.src)]
	for i, p := range g.src[g.npred:] {
		out[i] = in[p]
	}
}

// newJoinRow lays out the output row of a join applying j to rows of
// schemas ls and rs, and returns it with its schema. Of each input it
// keeps the columns j's predicates read, first, and then the columns an
// operator above the join reads. Scans return stored rows whole, so
// this is where the columns nothing reads fall away.
func (b *builder) newJoinRow(j *memo.JoinSpec, ls, rs schema) (joinRow, schema) {
	out := make(schema, 0, len(ls)+len(rs))
	src := make([]int, 0, len(ls)+len(rs))
	side := func(in schema) gather {
		start := len(out)
		keep := func(c algebra.Column) {
			if p := in.pos(c.ID); p >= 0 && !slices.Contains(out[start:], c.ID) {
				out, src = append(out, c.ID), append(src, p)
			}
		}
		for _, p := range j.Equi {
			algebra.ColumnsIn(p.Expr, keep)
		}
		for _, p := range j.Residual {
			algebra.ColumnsIn(p.Expr, keep)
		}
		npred := len(out) - start
		for p, id := range in {
			if b.reads[id] > 0 && !slices.Contains(out[start:start+npred], id) {
				out, src = append(out, id), append(src, p)
			}
		}
		return gather{src: src[start:], npred: npred}
	}
	r := joinRow{left: side(ls), right: side(rs)}
	r.row = make(data.Row, len(out))
	r.left.out, r.right.out = r.row[:len(r.left.src)], r.row[len(r.left.src):]
	return r, out
}

// nlJoinIter re-executes its inner (right) child once per outer row.
type nlJoinIter struct {
	opNode
	left, right Iterator
	pred        conjunction
	out         joinRow

	hasLeft bool
}

func (j *nlJoinIter) Open() error {
	j.hasLeft = false
	if err := j.enter(); err != nil {
		return err
	}
	return j.left.Open()
}

func (j *nlJoinIter) Next() (data.Row, bool, error) {
	for {
		if !j.hasLeft {
			lr, ok, err := j.left.Next()
			if err != nil || !ok {
				return nil, false, err
			}
			j.out.left.all(lr)
			j.hasLeft = true
			if err := j.right.Open(); err != nil {
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
		j.out.right.preds(rr)
		keep, err := j.pred.keep(j.out.row)
		if err != nil {
			return nil, false, err
		}
		if !keep {
			// The candidate pair was already charged through the
			// inner child's emission; no extra work tick here.
			continue
		}
		j.out.right.rest(rr)
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

// hashTable is the executor's one hash index: entries of k key words
// each, chained into buckets by Fibonacci hashing. A hash join appends
// its materialized build side's words and indexes them once, so heads
// has a power-of-two length of at least the entry count and each chain
// lists its bucket's rows in build order: the entries of one bucket
// whose words equal a probe key's are the probe's matches in the order
// the build input produced them. Hash aggregation adds one entry per
// group, and the buckets double whenever entries would outnumber them.
type hashTable struct {
	k     int      // key words per entry
	words []uint64 // entry i's key: words[i*k : i*k+k]
	heads []int32  // per bucket: its first entry, or -1
	next  []int32  // per entry: the next entry of its bucket, or -1
	shift uint     // 64 - log2(len(heads))
}

// index chains every entry into buckets, at least as many as entries.
func (h *hashTable) index() {
	n := len(h.words) / h.k
	bits := 0
	for 1<<bits < n {
		bits++
	}
	h.shift = uint(64 - bits)
	h.heads = make([]int32, 1<<bits)
	for b := range h.heads {
		h.heads[b] = -1
	}
	h.next = slices.Grow(h.next[:0], n)[:n]
	for i := n - 1; i >= 0; i-- {
		b := h.bucket(h.words[i*h.k : i*h.k+h.k])
		h.next[i], h.heads[b] = h.heads[b], int32(i)
	}
}

// add appends an entry with key's words and returns it.
func (h *hashTable) add(key []uint64) int32 {
	i := int32(len(h.next))
	h.words = append(h.words, key...)
	if len(h.next) >= len(h.heads) {
		h.index()
		return i
	}
	b := h.bucket(key)
	h.next = append(h.next, h.heads[b])
	h.heads[b] = i
	return i
}

// find returns the first entry whose key words equal key, or -1.
func (h *hashTable) find(key []uint64) int32 {
	return h.seek(h.heads[h.bucket(key)], key)
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

// seek returns the first entry from i on along its bucket's chain whose
// key words equal key, or -1. Entries with other words share the bucket
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

	rows  []data.Row // the build side: entry i of table is rows[i]
	table *hashTable
	cand  int32 // next build row matching the current probe row, or -1
}

func (j *hashJoinIter) Open() error {
	j.cand = -1
	if err := j.enter(); err != nil {
		return err
	}
	if j.table == nil {
		rows, err := load(j.left, nil, nil)
		if err != nil {
			return err
		}
		h := &hashTable{k: len(j.key)}
		kept := rows[:0]
		if !j.apart {
			h.words = make([]uint64, 0, len(rows)*len(j.key))
			for _, lr := range rows {
				if keyWords(j.key, lr, j.lPos, j.viaFloat) { // else it can never join
					kept = append(kept, lr)
					h.words = append(h.words, j.key...)
				}
			}
		}
		h.index()
		j.rows, j.table = kept, h
	}
	return j.right.Open()
}

func (j *hashJoinIter) Next() (data.Row, bool, error) {
	t := j.table
	for {
		if j.cand >= 0 {
			i := j.cand
			j.out.left.preds(j.rows[i])
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
			j.out.left.rest(j.rows[i])
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
		if j.cand = t.find(j.key); j.cand >= 0 {
			j.out.right.all(rr)
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
