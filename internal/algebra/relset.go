// Package algebra defines the bound (name-resolved) query representation
// the optimizer works on: scalar expressions over global column IDs, sort
// orderings, relation sets, and the normalized Query extracted from a
// parsed SELECT statement (join graph, pushed-down filters, aggregates,
// projections, required output order).
package algebra

import (
	"iter"
	"math/bits"
	"strconv"
)

// RelSet is a bitmask over the base relations of a query (at most 64,
// far beyond the paper's 6-8 join TPC-H queries). The join-order space is
// enumerated over these sets.
type RelSet uint64

// SetOf builds a set from relation indices.
func SetOf(idxs ...int) RelSet {
	var s RelSet
	for _, i := range idxs {
		s = s.Add(i)
	}
	return s
}

// Add returns the set with relation i added.
func (s RelSet) Add(i int) RelSet { return s | 1<<uint(i) }

// Has reports whether relation i is in the set.
func (s RelSet) Has(i int) bool { return s&(1<<uint(i)) != 0 }

// Union returns the union of two sets.
func (s RelSet) Union(o RelSet) RelSet { return s | o }

// SubsetOf reports whether s is contained in o.
func (s RelSet) SubsetOf(o RelSet) bool { return s&^o == 0 }

// Count returns the number of relations in the set.
func (s RelSet) Count() int { return bits.OnesCount64(uint64(s)) }

// Empty reports whether the set has no relations.
func (s RelSet) Empty() bool { return s == 0 }

// Single reports whether the set holds exactly one relation.
func (s RelSet) Single() bool { return s != 0 && s&(s-1) == 0 }

// First returns the smallest member index (64 for the empty set).
func (s RelSet) First() int { return bits.TrailingZeros64(uint64(s)) }

// All yields the member indices in increasing order, without allocating.
func (s RelSet) All() iter.Seq[int] {
	return func(yield func(int) bool) {
		for v := uint64(s); v != 0; v &= v - 1 {
			if !yield(bits.TrailingZeros64(v)) {
				return
			}
		}
	}
}

// String renders the set as {i,j,...} for debugging.
func (s RelSet) String() string {
	b := []byte{'{'}
	for i := range s.All() {
		if len(b) > 1 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(i), 10)
	}
	return string(append(b, '}'))
}
