// Package data defines the typed values, rows, and date arithmetic shared
// by the catalog, storage, optimizer, and execution engine.
//
// Values are small tagged structs rather than interface{} so that rows are
// contiguous and comparisons allocate nothing; this matters because the
// verification harness executes thousands of plans over the same data.
package data

import (
	"fmt"
	"strconv"
)

// Kind enumerates the runtime types a Value can hold.
type Kind uint8

// The supported value kinds. KindDate values store a day number (days
// since 1970-01-01) in the integer payload, so date comparison is integer
// comparison.
const (
	KindNull Kind = iota
	KindBool
	KindInt
	KindFloat
	KindString
	KindDate
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindBool:
		return "BOOLEAN"
	case KindInt:
		return "INTEGER"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "VARCHAR"
	case KindDate:
		return "DATE"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Numeric reports whether values of this kind participate in arithmetic.
func (k Kind) Numeric() bool { return k == KindInt || k == KindFloat }

// Value is a single typed datum. The zero Value is NULL.
type Value struct {
	K Kind
	I int64   // payload for KindInt, KindDate, KindBool (0/1)
	F float64 // payload for KindFloat
	S string  // payload for KindString
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// NewBool returns a boolean value.
func NewBool(b bool) Value {
	v := Value{K: KindBool}
	if b {
		v.I = 1
	}
	return v
}

// NewInt returns an integer value.
func NewInt(i int64) Value { return Value{K: KindInt, I: i} }

// NewFloat returns a floating-point value.
func NewFloat(f float64) Value { return Value{K: KindFloat, F: f} }

// NewString returns a string value.
func NewString(s string) Value { return Value{K: KindString, S: s} }

// NewDate returns a date value from a day number (days since 1970-01-01).
func NewDate(days int64) Value { return Value{K: KindDate, I: days} }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.K == KindNull }

// Bool returns the boolean payload. It is valid only for KindBool.
func (v Value) Bool() bool { return v.K == KindBool && v.I != 0 }

// Int returns the integer payload (also the day number for dates).
func (v Value) Int() int64 { return v.I }

// Float returns the value as float64, coercing integers.
func (v Value) Float() float64 {
	if v.K == KindInt {
		return float64(v.I)
	}
	return v.F
}

// Str returns the string payload.
func (v Value) Str() string { return v.S }

// String renders the value for display and for result digests.
func (v Value) String() string {
	switch v.K {
	case KindNull:
		return "NULL"
	case KindBool:
		if v.I != 0 {
			return "true"
		}
		return "false"
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return strconv.FormatFloat(v.F, 'g', 12, 64)
	case KindString:
		return v.S
	case KindDate:
		return FormatDate(v.I)
	default:
		return fmt.Sprintf("Value(kind=%d)", v.K)
	}
}

// Row is a tuple of values. Operators concatenate child rows, so a row's
// layout is the concatenation of the base-relation layouts below it.
type Row []Value

// Clone returns a copy of the row that shares no storage with the
// original beyond the (immutable) string payloads.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}
