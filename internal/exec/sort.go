package exec

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/algebra"
	"repro/internal/data"
)

// sortIter materializes its input and emits it ordered. It implements
// the Sort enforcer. The sorted buffer is cached across re-Opens (the
// input is deterministic within one execution), so a nested-loop parent
// pays the sort once.
type sortIter struct {
	opNode
	child  Iterator
	keyPos []int
	desc   []bool
	strs   *data.Strings

	rows   []data.Row
	loaded bool
	pos    int
}

func newSortIter(child Iterator, in schema, order algebra.Ordering, strs *data.Strings) (Iterator, error) {
	keyPos := make([]int, len(order))
	desc := make([]bool, len(order))
	for i, oc := range order {
		p := in.pos(oc.Col)
		if p < 0 {
			return nil, fmt.Errorf("exec: sort key #%d not present in input", oc.Col)
		}
		keyPos[i] = p
		desc[i] = oc.Desc
	}
	return &sortIter{child: child, keyPos: keyPos, desc: desc, strs: strs}, nil
}

func (s *sortIter) Open(ctx context.Context) error {
	if err := s.enter(); err != nil {
		return err
	}
	if s.loaded {
		s.pos = 0
		return nil
	}
	if err := s.child.Open(ctx); err != nil {
		return err
	}
	store := newRowStore(s.child)
	for {
		row, ok, err := s.child.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		s.rows = append(s.rows, store.keep(row))
	}
	if err := s.child.Close(); err != nil {
		return err
	}
	if err := sortRows(s.rows, s.keyPos, s.desc, s.strs); err != nil {
		return err
	}
	s.loaded = true
	s.pos = 0
	return nil
}

func (s *sortIter) Next() (data.Row, bool, error) {
	if s.pos >= len(s.rows) {
		return nil, false, nil
	}
	row := s.rows[s.pos]
	s.pos++
	if err := s.emit(); err != nil {
		return nil, false, err
	}
	return row, true, nil
}

func (s *sortIter) Close() error {
	// The child is normally closed after materialization, but an error
	// mid-load leaves it open — cascade unconditionally.
	err := s.child.Close()
	s.leave()
	return err
}

// sortRows stably sorts rows by the given key positions and directions,
// strings by their text in strs. NULLs sort first on ascending keys
// (matching data.Compare), last on descending ones.
func sortRows(rows []data.Row, keyPos []int, desc []bool, strs *data.Strings) error {
	var sortErr error
	sort.SliceStable(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		for k, p := range keyPos {
			c, err := data.Compare(strs, a[p], b[p])
			if err != nil && sortErr == nil {
				sortErr = err
			}
			if c == 0 {
				continue
			}
			if desc[k] {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	return sortErr
}
