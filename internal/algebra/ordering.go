package algebra

import (
	"strconv"

	"repro/internal/data"
)

// ColID identifies a column globally within one query: base-table columns
// and derived columns (grouping expressions, aggregate outputs, computed
// projections) all draw from the same ID space, so sort orderings can be
// described uniformly at any level of a plan.
type ColID int32

// Column is a bound column: either position ColIdx of base relation Rel,
// or a derived column (Rel < 0) produced by an aggregate or projection.
type Column struct {
	ID     ColID
	Name   string
	Kind   data.Kind
	Rel    int // base relation index, or -1 for derived columns
	ColIdx int // position within the base relation, or -1
}

// OrderCol is one sort key: a column and a direction.
type OrderCol struct {
	Col  ColID
	Desc bool
}

// String renders the key as "#id" or "#id DESC".
func (o OrderCol) String() string { return string(o.AppendTo(nil)) }

// AppendTo appends String's rendering to b.
func (o OrderCol) AppendTo(b []byte) []byte {
	b = strconv.AppendInt(append(b, '#'), int64(o.Col), 10)
	if o.Desc {
		b = append(b, " DESC"...)
	}
	return b
}

// Ordering is a sort order: a sequence of keys, major first. A nil or
// empty Ordering means "no order required/delivered".
type Ordering []OrderCol

// IsNone reports whether the ordering is empty.
func (o Ordering) IsNone() bool { return len(o) == 0 }

// Equal reports exact equality of two orderings.
func (o Ordering) Equal(p Ordering) bool {
	if len(o) != len(p) {
		return false
	}
	for i := range o {
		if o[i] != p[i] {
			return false
		}
	}
	return true
}

// Satisfies reports whether a delivered ordering o satisfies a required
// ordering req: req must be a prefix of o. This is the compatibility test
// the paper's Section 3.1 applies when materializing the links between an
// operator and its possible children ("not all operators may be chosen as
// potential children").
func (o Ordering) Satisfies(req Ordering) bool {
	if len(req) > len(o) {
		return false
	}
	for i := range req {
		if o[i] != req[i] {
			return false
		}
	}
	return true
}

// String renders the ordering for plan display.
func (o Ordering) String() string { return string(o.AppendTo(nil)) }

// AppendTo appends String's rendering to b: "(#3,#5 DESC)", or "(any)"
// for the empty ordering.
func (o Ordering) AppendTo(b []byte) []byte {
	if len(o) == 0 {
		return append(b, "(any)"...)
	}
	b = append(b, '(')
	for i, c := range o {
		if i > 0 {
			b = append(b, ',')
		}
		b = c.AppendTo(b)
	}
	return append(b, ')')
}

// Clone returns an independent copy.
func (o Ordering) Clone() Ordering {
	if o == nil {
		return nil
	}
	out := make(Ordering, len(o))
	copy(out, o)
	return out
}
