// Package data defines the typed values, rows, and date arithmetic shared
// by the catalog, storage, optimizer, and execution engine.
//
// Values are small tagged structs rather than interface{} so that rows are
// contiguous and comparisons allocate nothing; this matters because the
// verification harness executes thousands of plans over the same data.
// A Value is 16 bytes with no pointer: strings are interned (Strings)
// and a string value carries only its code.
package data

import (
	"fmt"
	"math"
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

// Value is a single typed datum: a kind and one 8-byte payload, 16 bytes
// with no pointer, so rows and the slabs that hold them are memory the
// garbage collector never scans. The payload is an integer, a day
// number, a boolean (0/1), the bits of a float, or a string code. A
// string's text lives in the Strings table that issued its code; see
// Strings. The zero Value is NULL.
type Value struct {
	K Kind
	p uint64
}

// Null returns the NULL value.
func Null() Value { return Value{} }

// NewBool returns a boolean value.
func NewBool(b bool) Value {
	v := Value{K: KindBool}
	if b {
		v.p = 1
	}
	return v
}

// NewInt returns an integer value.
func NewInt(i int64) Value { return Value{K: KindInt, p: uint64(i)} }

// NewFloat returns a floating-point value.
func NewFloat(f float64) Value { return Value{K: KindFloat, p: math.Float64bits(f)} }

// NewDate returns a date value from a day number (days since 1970-01-01).
func NewDate(days int64) Value { return Value{K: KindDate, p: uint64(days)} }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.K == KindNull }

// Bool returns the boolean payload. It is valid only for KindBool.
func (v Value) Bool() bool { return v.K == KindBool && v.p != 0 }

// Int returns the integer payload (also the day number for dates).
func (v Value) Int() int64 { return int64(v.p) }

// Float returns the value as float64, coercing integers.
func (v Value) Float() float64 {
	if v.K == KindInt {
		return float64(int64(v.p))
	}
	return math.Float64frombits(v.p)
}

// Code returns the string code of a KindString value.
func (v Value) Code() uint64 { return v.p }

// Bits returns the raw payload. Two values of one kind other than float
// are equal exactly when their payloads are, which is what lets a hash
// table key a single column by 8 bytes.
func (v Value) Bits() uint64 { return v.p }

// String renders the value for display. A string renders as its code
// ("#12"): its text is known only to the Strings table that issued the
// code, so display of rows goes through Strings.Format.
func (v Value) String() string { return string(v.append(nil, nil)) }

// append renders v after b, resolving a string's text through s.
func (v Value) append(b []byte, s *Strings) []byte {
	switch v.K {
	case KindNull:
		return append(b, "NULL"...)
	case KindBool:
		return strconv.AppendBool(b, v.p != 0)
	case KindInt:
		return strconv.AppendInt(b, int64(v.p), 10)
	case KindFloat:
		return strconv.AppendFloat(b, math.Float64frombits(v.p), 'g', 12, 64)
	case KindString:
		if s == nil {
			return strconv.AppendUint(append(b, '#'), v.p, 10)
		}
		return append(b, s.Text(v)...)
	case KindDate:
		return appendDate(b, int64(v.p))
	default:
		return fmt.Appendf(b, "Value(kind=%d)", v.K)
	}
}

// Row is a tuple of values. Operators concatenate child rows, so a row's
// layout is the concatenation of the base-relation layouts below it.
type Row []Value

// Clone returns a copy of the row that shares no storage with the
// original. Values hold no pointers (a string is a code), so the copy
// is a plain memory copy.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}
