package exec

import (
	"math/bits"
	"sync/atomic"

	"repro/internal/algebra"
	"repro/internal/storage"
)

// selectionSlotBytes is the fixed overhead SizeBytes charges for each
// filtered relation's slot: the atomic pointer, the selection header
// and the bitmap's slice header.
const selectionSlotBytes = 64

// Selections caches, for each base relation of one bound query, the
// rows of its stored table that pass the relation's pushed-down filter.
// A scan with a filter records the bitmap during a full, error-free
// pass and publishes it here; every later scan of that relation, in any
// plan of the query, walks the bitmap's set bits instead of evaluating
// the filter, and charges the Governor for the rows it skips exactly
// as per-row evaluation would. Bits are indexed by storage row id, so a
// table scan and an index scan of one relation share one bitmap.
//
// What a filter selects depends only on the table's rows and the
// filter, and the filter's literals are part of the query, so a
// Selections is valid for as long as its query is: the engine keeps one
// per cached structure. A bitmap is used only while its table holds as
// many rows as when it was recorded; storage.Table.Insert only appends,
// so the next full scan after an insert records it again. A Selections
// is safe for concurrent executions.
type Selections struct {
	q     *algebra.Query
	slots []atomic.Pointer[selection] // by BaseRel.Idx
	bytes int64
}

// selection is one published bitmap. It is immutable.
type selection struct {
	rows int      // len(table.Rows) when recorded
	bits []uint64 // bit i set: stored row i passes the filter
}

// NewSelections returns an empty cache for the filtered relations of q
// over db. Its byte size is fixed here, from the tables' current sizes:
// a bitmap word per 64 rows plus a slot overhead for each relation with
// a filter.
func NewSelections(db *storage.DB, q *algebra.Query) *Selections {
	s := &Selections{q: q, slots: make([]atomic.Pointer[selection], len(q.Rels))}
	for _, rel := range q.Rels {
		if len(rel.Filters) == 0 {
			continue
		}
		s.bytes += selectionSlotBytes
		if t, err := db.Table(rel.Table.Name); err == nil {
			s.bytes += int64(bitmapWords(len(t.Rows))) * 8
		}
	}
	return s
}

// SizeBytes is the byte size the cache charges for s: every bitmap at
// the table sizes s was created over, whether recorded yet or not.
func (s *Selections) SizeBytes() int64 {
	if s == nil {
		return 0
	}
	return s.bytes
}

// slot returns the bitmap slot of relation rel, or nil when s is nil
// (nothing is cached) or rel has no filter.
func (s *Selections) slot(rel *algebra.BaseRel) *atomic.Pointer[selection] {
	if s == nil || len(rel.Filters) == 0 {
		return nil
	}
	return &s.slots[rel.Idx]
}

func bitmapWords(rows int) int { return (rows + 63) / 64 }

// nextSet returns the index of the first set bit of b at or after i, or
// n when there is none below n. No bit at or past n is set.
func nextSet(b []uint64, i, n int) int {
	if i >= n {
		return n
	}
	w := i >> 6
	word := b[w] &^ (1<<(uint(i)&63) - 1)
	for word == 0 {
		w++
		if w == len(b) {
			return n
		}
		word = b[w]
	}
	return w<<6 + bits.TrailingZeros64(word)
}
