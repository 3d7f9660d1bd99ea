package exec

import (
	"fmt"

	"repro/internal/data"
	"repro/internal/memo"
	"repro/internal/storage"
)

// scanIter reads a stored table, in heap order for TableScan or in index
// key order for IndexScan, applying the relation's pushed-down filters.
type scanIter struct {
	opNode
	table  *storage.Table
	perm   []int32 // nil for heap order
	filter conjunction
	pos    int
}

func (b *builder) buildScan(e *memo.Expr) (Iterator, schema, error) {
	rel := e.Scan.Rel
	t, err := b.db.Table(rel.Table.Name)
	if err != nil {
		return nil, nil, err
	}
	out := make(schema, len(rel.Cols))
	for i, c := range rel.Cols {
		out[i] = c.ID
	}
	it := &scanIter{table: t}
	if e.Op == memo.IndexScan {
		if e.Scan.Index == nil {
			return nil, nil, fmt.Errorf("exec: index scan %s has no index", e.Name())
		}
		perm, err := t.IndexOrder(e.Scan.Index)
		if err != nil {
			return nil, nil, err
		}
		it.perm = perm
	}
	if it.filter, err = compileConjunction(b.strs, rel.Filters, out); err != nil {
		return nil, nil, err
	}
	return it, out, nil
}

func (s *scanIter) Open() error {
	s.pos = 0
	return s.enter()
}

func (s *scanIter) Next() (data.Row, bool, error) {
	n := len(s.table.Rows)
	for s.pos < n {
		var row data.Row
		if s.perm != nil {
			row = s.table.Rows[s.perm[s.pos]]
		} else {
			row = s.table.Rows[s.pos]
		}
		s.pos++
		keep, err := s.filter.keep(row)
		if err != nil {
			return nil, false, err
		}
		if !keep {
			// Filtered rows still charge the work budget: a scan
			// grinding through a huge table emitting nothing must
			// remain governable.
			if err := s.examine(); err != nil {
				return nil, false, err
			}
			continue
		}
		if err := s.emit(); err != nil {
			return nil, false, err
		}
		return row, true, nil
	}
	return nil, false, nil
}

func (s *scanIter) Close() error {
	s.leave()
	return nil
}
