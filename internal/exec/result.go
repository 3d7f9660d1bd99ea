package exec

import (
	"context"

	"repro/internal/data"
	"repro/internal/memo"
)

// resultIter computes the final projections of each input row. A
// Result with a sort order runs as a sortIter instead (see buildResult).
type resultIter struct {
	opNode
	child   Iterator
	projFns []evalFunc
	out     data.Row // reused projection row
}

// buildResult compiles the plan's Result. A self-sorting Result is a
// sortIter whose kept rows carry the projections, so that it can order
// by computed output columns.
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
	if !e.SortOrder.IsNone() {
		it, err := newSortIter(child, cs.concat(out), e.SortOrder, b.strs, projFns)
		return it, out, err
	}
	return &resultIter{child: child, projFns: projFns, out: make(data.Row, len(projFns))}, out, nil
}

func (r *resultIter) Open(ctx context.Context) error {
	if err := r.enter(); err != nil {
		return err
	}
	return r.child.Open(ctx)
}

func (r *resultIter) Next() (data.Row, bool, error) {
	row, ok, err := r.child.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	for i, f := range r.projFns {
		if r.out[i], err = f(row); err != nil {
			return nil, false, err
		}
	}
	if err := r.emit(); err != nil {
		return nil, false, err
	}
	return r.out, true, nil
}

func (r *resultIter) Close() error {
	err := r.child.Close()
	r.leave()
	return err
}
