package exec

import (
	"context"
	"fmt"

	"repro/internal/data"
	"repro/internal/memo"
	"repro/internal/storage"
)

// lookupJoinIter implements the index nested-loop join: for each outer
// row it binary-searches the inner table's index ordering for the rows
// whose leading key columns equal the outer key values, then applies the
// inner relation's pushed-down filters and the join predicates.
type lookupJoinIter struct {
	opNode
	outer Iterator

	table    *storage.Table
	perm     []int32
	keyCols  []int // inner storage positions of the index prefix
	outerPos []int // outer row positions of the lookup keys

	innerFilter conjunction
	pred        conjunction
	keys        []data.Value
	strs        *data.Strings // orders string keys by text, as the index is
	out         joinRow

	hasOuter bool
	lo, hi   int
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

	it := &lookupJoinIter{outer: outer, table: table, perm: perm,
		keys: make([]data.Value, len(lk.OuterKeys)), strs: b.strs, out: newJoinRow(os, innerSchema)}
	for i, oc := range lk.OuterKeys {
		p := os.pos(oc.ID)
		if p < 0 {
			return nil, nil, fmt.Errorf("exec: lookup key %s missing from outer schema in %s", oc.Name, e.Name())
		}
		it.outerPos = append(it.outerPos, p)
		it.keyCols = append(it.keyCols, lk.InnerKeys[i].ColIdx)
	}

	if it.innerFilter, err = compileConjunction(b.strs, lk.Rel.Filters, innerSchema); err != nil {
		return nil, nil, err
	}
	if it.pred, err = compileJoinPreds(b.strs, e.Join, out); err != nil {
		return nil, nil, err
	}
	return it, out, nil
}

func (j *lookupJoinIter) Open(ctx context.Context) error {
	j.hasOuter = false
	j.lo, j.hi = 0, 0
	if err := j.enter(); err != nil {
		return err
	}
	return j.outer.Open(ctx)
}

// seek positions [lo, hi) on the rows whose index prefix equals keys.
// The permutation is sorted by the index key columns, so both bounds are
// binary searches; data.Compare treats NULL as smallest, consistent with
// the ordering used to build the permutation.
func (j *lookupJoinIter) seek(keys []data.Value) (int, int, error) {
	lo, err := j.search(keys, 0)
	if err != nil {
		return 0, 0, err
	}
	hi, err := j.search(keys, 1)
	return lo, hi, err
}

// search returns the first permutation position whose index prefix
// compares >= atLeast against keys.
func (j *lookupJoinIter) search(keys []data.Value, atLeast int) (int, error) {
	lo, hi := 0, len(j.perm)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		c, err := j.cmpAt(mid, keys)
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

func (j *lookupJoinIter) cmpAt(i int, keys []data.Value) (int, error) {
	row := j.table.Rows[j.perm[i]]
	for k, kc := range j.keyCols {
		c, err := data.Compare(j.strs, row[kc], keys[k])
		if err != nil || c != 0 {
			return c, err
		}
	}
	return 0, nil
}

func (j *lookupJoinIter) Next() (data.Row, bool, error) {
	for {
		if !j.hasOuter {
			or, ok, err := j.outer.Next()
			if err != nil || !ok {
				return nil, false, err
			}
			if extractKey(j.keys, or, j.outerPos) {
				continue // NULL keys never join
			}
			lo, hi, err := j.seek(j.keys)
			if err != nil {
				return nil, false, err
			}
			if lo == hi {
				continue
			}
			j.out.setLeft(or)
			j.hasOuter, j.lo, j.hi = true, lo, hi
		}
		for j.lo < j.hi {
			inner := j.table.Rows[j.perm[j.lo]]
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
				// Index-range candidates read straight from storage;
				// rejected ones charge the work budget here.
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
		j.hasOuter = false
	}
}

func (j *lookupJoinIter) Close() error {
	err := j.outer.Close()
	j.leave()
	return err
}
