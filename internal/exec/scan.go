package exec

import (
	"fmt"
	"sync/atomic"

	"repro/internal/data"
	"repro/internal/memo"
	"repro/internal/storage"
)

// scanIter reads a stored table, in heap order for TableScan or in index
// key order for IndexScan, applying the relation's pushed-down filters.
//
// A filtered scan with a Selections slot either walks the bitmap
// published there, when it covers the table, or evaluates its filter
// row by row and records the rows it keeps, publishing them when it
// reaches the end of the table.
type scanIter struct {
	opNode
	table  *storage.Table
	perm   []int32 // nil for heap order
	filter conjunction
	pos    int
	n      int // the table's rows when the scan was opened

	slot *atomic.Pointer[selection] // nil: nothing is cached
	seen *selection                 // what slot held at Open
	walk bool                       // seen covers the table: walk its bits
	rec  []uint64                   // the bitmap being recorded, reused across Opens
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
	it := &scanIter{table: t, slot: b.sel.slot(rel)}
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
	s.pos, s.n = 0, len(s.table.Rows)
	if s.slot != nil {
		s.seen = s.slot.Load()
		s.walk = s.seen != nil && s.seen.rows == s.n
		if !s.walk {
			if words := bitmapWords(s.n); cap(s.rec) >= words {
				s.rec = s.rec[:words]
				clear(s.rec)
			} else {
				s.rec = make([]uint64, words)
			}
		}
	}
	return s.enter()
}

func (s *scanIter) Next() (data.Row, bool, error) {
	if s.walk {
		return s.nextSelected()
	}
	for s.pos < s.n {
		id := s.pos
		if s.perm != nil {
			id = int(s.perm[s.pos])
		}
		row := s.table.Rows[id]
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
		if s.rec != nil {
			s.rec[id>>6] |= 1 << (id & 63)
		}
		if err := s.emit(); err != nil {
			return nil, false, err
		}
		return row, true, nil
	}
	if s.rec != nil {
		// A full pass with no error: publish, unless another execution
		// published first. A published bitmap is never written again.
		if s.slot.CompareAndSwap(s.seen, &selection{rows: s.n, bits: s.rec}) {
			s.rec = nil
		}
	}
	return nil, false, nil
}

// nextSelected is Next over a published bitmap: it moves to the next
// kept row and charges the rows it passed over in one step, as many
// ticks as evaluating their filter would have charged.
func (s *scanIter) nextSelected() (data.Row, bool, error) {
	bits := s.seen.bits
	next := s.pos
	if s.perm == nil {
		next = nextSet(bits, next, s.n)
	} else {
		for next < s.n && bits[s.perm[next]>>6]&(1<<(s.perm[next]&63)) == 0 {
			next++
		}
	}
	if err := s.skip(next - s.pos); err != nil {
		return nil, false, err
	}
	s.pos = next
	if next == s.n {
		return nil, false, nil
	}
	s.pos++
	if err := s.emit(); err != nil {
		return nil, false, err
	}
	if s.perm != nil {
		next = int(s.perm[next])
	}
	return s.table.Rows[next], true, nil
}

func (s *scanIter) Close() error {
	s.leave()
	return nil
}
