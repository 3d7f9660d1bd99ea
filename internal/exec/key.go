package exec

import (
	"encoding/binary"
	"math"

	"repro/internal/algebra"
	"repro/internal/data"
)

// keyEncoder renders multi-column key tuples, and single-column keys
// that mix an int and a float side, for hash joins and hash aggregation
// as fixed-width binary into one reused buffer: a kind tag, then 8 bytes
// for a number or a string code. Looking a key up with m[string(buf)]
// allocates nothing; only inserting a new key does. Every other
// single-column key is its 8-byte payload (wordKey).
//
// Buckets must be a superset of data.Compare equality, which the join
// predicate re-checks on every candidate pair:
//   - integers (and dates and booleans) encode exactly, so distinct
//     int64 keys above 2^53 never share a bucket;
//   - floats encode their bits, with -0 normalized to 0;
//   - strings encode their code: equal texts share one code;
//   - a key position that equates an integer column with a float column
//     encodes both sides through float64, because data.Compare compares
//     such a pair as float64 values.
type keyEncoder struct {
	viaFloat []bool // per key position; nil = no mixed positions
	buf      []byte
}

// newJoinKeyEncoder flags the key positions whose two sides have
// different numeric kinds.
func newJoinKeyEncoder(l, r []algebra.Column) keyEncoder {
	var enc keyEncoder
	for i := range l {
		lk, rk := l[i].Kind, r[i].Kind
		if lk != rk && lk.Numeric() && rk.Numeric() {
			if enc.viaFloat == nil {
				enc.viaFloat = make([]bool, len(l))
			}
			enc.viaFloat[i] = true
		}
	}
	return enc
}

const (
	tagNull   = 'n'
	tagInt    = 'i'
	tagFloat  = 'f'
	tagString = 's'
)

// encode returns the key of vals. The bytes are valid until the next
// encode call.
func (e *keyEncoder) encode(vals []data.Value) []byte {
	b := e.buf[:0]
	for i, v := range vals {
		switch v.K {
		case data.KindNull:
			b = append(b, tagNull)
		case data.KindString:
			b = append(b, tagString)
			b = binary.LittleEndian.AppendUint64(b, v.Code())
		case data.KindFloat:
			b = appendFloatKey(b, v.Float())
		default: // KindInt, KindDate, KindBool
			if e.viaFloat != nil && e.viaFloat[i] {
				b = appendFloatKey(b, float64(v.Int()))
			} else {
				b = appendIntKey(b, v.Int())
			}
		}
	}
	e.buf = b
	return b
}

func appendIntKey(b []byte, i int64) []byte {
	b = append(b, tagInt)
	return binary.LittleEndian.AppendUint64(b, uint64(i))
}

func appendFloatKey(b []byte, f float64) []byte {
	if f == 0 {
		f = 0 // -0 == 0
	}
	b = append(b, tagFloat)
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// wordKey is the hash key of a non-NULL value of a single-column key
// whose positions all hold one kind: its payload, with -0 folded into 0.
// Payloads are equal exactly when data.Compare says the values are
// (ints, dates and booleans exactly, strings by code), save NaN, which
// the byte encoder keys by its bits too.
func wordKey(v data.Value) uint64 {
	if v.K == data.KindFloat && v.Float() == 0 {
		return 0
	}
	return v.Bits()
}

// wordKeyed reports whether a single key position whose sides are
// declared l and r takes the 8-byte path: one kind on both sides.
func wordKeyed(l, r data.Kind) bool { return l == r && l != data.KindNull }
