package exec

import (
	"context"

	"repro/internal/algebra"
	"repro/internal/data"
	"repro/internal/memo"
)

// resultIter computes the final projections and, for the self-sorting
// Result variant, orders the output. Sort keys may be computed output
// columns (ORDER BY revenue over SUM(...)), so the iterator sorts rows
// extended with the projected values and then trims to the projections.
type resultIter struct {
	opNode
	child   Iterator
	projFns []evalFunc
	nProj   int
	strs    *data.Strings

	// Self-sort state (sortKeyPos indexes the extended row: child row
	// followed by projected values).
	selfSort bool
	keyPos   []int
	desc     []bool
	rows     []data.Row
	loaded   bool
	pos      int

	out data.Row // reused projection row of the streaming variant
}

func (b *builder) buildResult(e *memo.Expr, child Iterator, cs schema) (Iterator, schema, error) {
	q := b.q
	out := make(schema, len(q.Projections))
	projFns := make([]evalFunc, len(q.Projections))
	for i := range q.Projections {
		f, err := compile(b.strs, q.Projections[i].Expr, cs)
		if err != nil {
			return nil, nil, err
		}
		projFns[i] = f
		out[i] = q.Projections[i].Out.ID
	}
	it := &resultIter{child: child, projFns: projFns, nProj: len(projFns), strs: b.strs, out: make(data.Row, len(projFns))}
	if !e.SortOrder.IsNone() {
		extended := cs.concat(out)
		it.selfSort = true
		it.keyPos = make([]int, len(e.SortOrder))
		it.desc = make([]bool, len(e.SortOrder))
		for i, oc := range e.SortOrder {
			p := extended.pos(oc.Col)
			if p < 0 {
				return nil, nil, errMissingSortKey(oc.Col)
			}
			it.keyPos[i] = p
			it.desc[i] = oc.Desc
		}
	}
	return it, out, nil
}

type missingSortKeyError algebra.ColID

func errMissingSortKey(c algebra.ColID) error { return missingSortKeyError(c) }

func (e missingSortKeyError) Error() string {
	return "exec: result sort key not found in output or input"
}

// project evaluates the projections of row into out.
func (r *resultIter) project(out, row data.Row) error {
	for i, f := range r.projFns {
		v, err := f(row)
		if err != nil {
			return err
		}
		out[i] = v
	}
	return nil
}

func (r *resultIter) Open(ctx context.Context) error {
	r.pos = 0
	if err := r.enter(); err != nil {
		return err
	}
	if r.selfSort && r.loaded {
		return nil
	}
	if err := r.child.Open(ctx); err != nil {
		return err
	}
	if !r.selfSort {
		return nil
	}
	var store rowStore
	for {
		row, ok, err := r.child.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		ext := store.alloc(len(row) + r.nProj)
		copy(ext, row)
		if err := r.project(ext[len(row):], row); err != nil {
			return err
		}
		r.rows = append(r.rows, ext)
	}
	if err := r.child.Close(); err != nil {
		return err
	}
	if err := sortRows(r.rows, r.keyPos, r.desc, r.strs); err != nil {
		return err
	}
	r.loaded = true
	return nil
}

func (r *resultIter) Next() (data.Row, bool, error) {
	if r.selfSort {
		if r.pos >= len(r.rows) {
			return nil, false, nil
		}
		ext := r.rows[r.pos]
		r.pos++
		if err := r.emit(); err != nil {
			return nil, false, err
		}
		return ext[len(ext)-r.nProj:], true, nil
	}
	row, ok, err := r.child.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	if err := r.project(r.out, row); err != nil {
		return nil, false, err
	}
	if err := r.emit(); err != nil {
		return nil, false, err
	}
	return r.out, true, nil
}

func (r *resultIter) Close() error {
	// The child is normally closed after the self-sort load, but an
	// error mid-load leaves it open — cascade unconditionally.
	err := r.child.Close()
	r.leave()
	return err
}
