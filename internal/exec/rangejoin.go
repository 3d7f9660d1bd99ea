package exec

import (
	"fmt"

	"repro/internal/data"
	"repro/internal/memo"
)

// rangeJoinIter is the executor's one range join, serving both the merge
// join and the index nested-loop join. Its inner sequence is sorted on
// the join key: a merge join's right input, loaded at the first Open and
// cached across re-Opens, or a lookup's table read through its index
// ordering. For each outer row it binary-searches the run of inner rows
// whose key equals the outer row's, then passes each candidate of the
// run through the inner filter (a lookup's pushed-down filters; empty
// for a merge join) and the join predicates. Output follows the outer
// input's order.
type rangeJoinIter struct {
	opNode
	outer, inner Iterator // inner is nil for a lookup
	outerPos     []int    // outer row positions of the key columns
	innerPos     []int    // inner row positions of the key columns

	rows   []data.Row // the inner sequence: rows, or rows[perm[i]]
	perm   []int32    // a lookup's index ordering; nil for a merge join
	loaded bool

	innerFilter conjunction
	pred        conjunction
	key         []data.Value  // the current outer row's key
	strs        *data.Strings // orders string keys by text, as the inner sequence is
	out         joinRow

	lo, hi int // the candidates of the current outer row left to try
}

func (b *builder) buildLookupJoin(e *memo.Expr, outer Iterator, os schema) (Iterator, schema, error) {
	lk := e.Lookup
	if lk == nil {
		return nil, nil, fmt.Errorf("exec: %s has no lookup payload", e.Name())
	}
	table, err := b.db.Table(lk.Rel.Table.Name)
	if err != nil {
		return nil, nil, err
	}
	perm, err := table.IndexOrder(lk.Index)
	if err != nil {
		return nil, nil, err
	}

	innerSchema := make(schema, len(lk.Rel.Cols))
	for i, c := range lk.Rel.Cols {
		innerSchema[i] = c.ID
	}
	out := os.concat(innerSchema)

	it := &rangeJoinIter{outer: outer, rows: table.Rows, perm: perm, loaded: true,
		key: make([]data.Value, len(lk.OuterKeys)), strs: b.strs, out: newJoinRow(os, innerSchema)}
	for i, oc := range lk.OuterKeys {
		p := os.pos(oc.ID)
		if p < 0 {
			return nil, nil, fmt.Errorf("exec: lookup key %s missing from outer schema in %s", oc.Name, e.Name())
		}
		it.outerPos = append(it.outerPos, p)
		it.innerPos = append(it.innerPos, lk.InnerKeys[i].ColIdx)
	}

	if it.innerFilter, err = compileConjunction(b.strs, lk.Rel.Filters, innerSchema); err != nil {
		return nil, nil, err
	}
	if it.pred, err = compileJoinPreds(b.strs, e.Join, out); err != nil {
		return nil, nil, err
	}
	return it, out, nil
}

func (j *rangeJoinIter) Open() error {
	j.lo, j.hi = 0, 0
	if err := j.enter(); err != nil {
		return err
	}
	if !j.loaded {
		var err error
		if j.rows, err = load(j.inner, nil, nil); err != nil {
			return err
		}
		j.loaded = true
	}
	return j.outer.Open()
}

// at returns the inner sequence's i-th row.
func (j *rangeJoinIter) at(i int) data.Row {
	if j.perm != nil {
		return j.rows[j.perm[i]]
	}
	return j.rows[i]
}

// seek copies the key of the outer row or into key and returns the run
// [lo, hi) of inner positions whose key equals it. The inner sequence is
// sorted on the key, so both bounds are binary searches; data.Compare
// treats NULL as smallest, consistent with that ordering. An outer row
// with a NULL key matches nothing (NULL keys never join).
func (j *rangeJoinIter) seek(or data.Row) (lo, hi int, err error) {
	for i, p := range j.outerPos {
		if or[p].IsNull() {
			return 0, 0, nil
		}
		j.key[i] = or[p]
	}
	if lo, err = j.search(0, 0); err != nil {
		return 0, 0, err
	}
	hi, err = j.search(lo, 1)
	return lo, hi, err
}

// search returns the first inner position from lo on whose key compares
// >= atLeast against key.
func (j *rangeJoinIter) search(lo, atLeast int) (int, error) {
	hi := len(j.rows)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		c, err := j.cmpAt(mid)
		if err != nil {
			return 0, err
		}
		if c >= atLeast {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, nil
}

func (j *rangeJoinIter) cmpAt(i int) (int, error) {
	row := j.at(i)
	for k, p := range j.innerPos {
		c, err := data.Compare(j.strs, row[p], j.key[k])
		if err != nil || c != 0 {
			return c, err
		}
	}
	return 0, nil
}

func (j *rangeJoinIter) Next() (data.Row, bool, error) {
	for {
		for j.lo < j.hi {
			inner := j.at(j.lo)
			j.lo++
			keep, err := j.innerFilter.keep(inner)
			if err == nil && keep {
				j.out.setRight(inner)
				keep, err = j.pred.keep(j.out.row)
			}
			if err != nil {
				return nil, false, err
			}
			if !keep {
				// Candidates are materialized or stored rows; rejected
				// ones charge the work budget here.
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
		or, ok, err := j.outer.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		if j.lo, j.hi, err = j.seek(or); err != nil {
			return nil, false, err
		}
		if j.lo < j.hi {
			j.out.setLeft(or)
		}
	}
}

func (j *rangeJoinIter) Close() error {
	// A merge join's inner child is normally closed after loading, but an
	// error mid-load leaves it open — cascade to both sides.
	err := closeAll(j.outer, j.inner)
	j.leave()
	return err
}
