package exec

import (
	"encoding/binary"
	"math"

	"repro/internal/algebra"
	"repro/internal/data"
)

// keyEncoder renders multi-column group keys, and single-column ones
// whose values do not all have the declared kind, for hash aggregation
// as fixed-width binary into one reused buffer: a kind tag, then 8 bytes
// for a number or a string code. Looking a key up with m[string(buf)]
// allocates nothing; only inserting a new key does. Every other
// single-column key is its 8-byte payload (wordKey).
//
// Equal encodings are exactly data.Compare equality between values of
// one kind:
//   - integers (and dates and booleans) encode exactly, so distinct
//     int64 keys above 2^53 never share a group;
//   - floats encode their bits, with -0 normalized to 0;
//   - strings encode their code: equal texts share one code.
type keyEncoder struct {
	buf []byte
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
	for _, v := range vals {
		switch v.K {
		case data.KindNull:
			b = append(b, tagNull)
		case data.KindString:
			b = append(b, tagString)
			b = binary.LittleEndian.AppendUint64(b, v.Code())
		case data.KindFloat:
			b = appendFloatKey(b, v.Float())
		default: // KindInt, KindDate, KindBool
			b = appendIntKey(b, v.Int())
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

// wordKey is the hash key of a non-NULL value among values of its kind
// (a single-column group key, a hash-join key position): its payload,
// with -0 folded into 0. Payloads are equal exactly when data.Compare
// says the values are (ints, dates and booleans exactly, strings by
// code), save NaN, which the byte encoder keys by its bits too.
func wordKey(v data.Value) uint64 {
	if v.K == data.KindFloat && v.Float() == 0 {
		return 0
	}
	return v.Bits()
}

// joinKeyRules decides how each key position of a hash join whose sides
// are declared l and r turns a value into its word. Equal words must be
// a superset of data.Compare equality, which the join predicate
// re-checks on every candidate pair; they are exactly the byte
// encoder's equal keys:
//   - one kind on both sides, or kinds the encoder tags alike (int,
//     date, bool): wordKey, the payload;
//   - an int side against a float side (viaFloat): the value's float64
//     bits, because data.Compare compares such a pair as float64
//     values, so 2^53+1 equals 2^53.0;
//   - kinds the encoder tags apart, such as a string against a number:
//     no pair is equal, and apart reports that the join matches nothing.
//
// Join keys are base columns, whose stored values all have the declared
// kind (Table.Insert checks).
func joinKeyRules(l, r []algebra.Column) (viaFloat []bool, apart bool) {
	for i := range l {
		lk, rk := l[i].Kind, r[i].Kind
		switch {
		case lk == rk:
		case lk.Numeric() && rk.Numeric():
			if viaFloat == nil {
				viaFloat = make([]bool, len(l))
			}
			viaFloat[i] = true
		case keyTag(lk) != keyTag(rk):
			apart = true
		}
	}
	return viaFloat, apart
}

// keyTag is the tag the byte encoder writes for a non-NULL value of kind
// k.
func keyTag(k data.Kind) byte {
	switch k {
	case data.KindString:
		return tagString
	case data.KindFloat:
		return tagFloat
	default:
		return tagInt
	}
}

// keyWords writes the words of r's key columns pos into dst, under the
// rules joinKeyRules chose, and reports false when a key is NULL: NULL
// keys never join.
func keyWords(dst []uint64, r data.Row, pos []int, viaFloat []bool) bool {
	for i, p := range pos {
		v := r[p]
		if v.IsNull() {
			return false
		}
		if viaFloat != nil && viaFloat[i] {
			v = data.NewFloat(v.Float())
		}
		dst[i] = wordKey(v)
	}
	return true
}
