package exec

import (
	"repro/internal/algebra"
	"repro/internal/data"
)

// The kind classes of hash keys. Values of one class compare by their
// word (wordKey): ints, dates and booleans as the integers they hold,
// floats numerically, strings by code. Values of two classes never
// share a key.
const (
	classNull = iota
	classInt
	classFloat
	classString
)

// keyTag is the kind class of a value of kind k.
func keyTag(k data.Kind) uint64 {
	switch k {
	case data.KindNull:
		return classNull
	case data.KindString:
		return classString
	case data.KindFloat:
		return classFloat
	default: // KindInt, KindDate, KindBool
		return classInt
	}
}

// wordKey is the hash key of a non-NULL value among values of its kind
// class (a group key, a hash-join key position): its payload, with -0
// folded into 0. Payloads are equal exactly when data.Compare says the
// values are (ints, dates and booleans exactly, so 2^53 and 2^53+1 stay
// apart; strings by code), save NaN, which keys by its bits.
func wordKey(v data.Value) uint64 {
	if v.K == data.KindFloat && v.Float() == 0 {
		return 0
	}
	return v.Bits()
}

// groupWidth is the number of words groupWords writes for k key values.
func groupWidth(k int) int { return k + (k+31)/32 }

// groupWords writes the words of a group key into dst, groupWidth(k)
// long: each value's wordKey (0 for NULL), then the values' kind
// classes, two bits apiece. It is the one definition of group-key
// equality, shared by hash and stream aggregation: two keys share a
// group exactly when their words are equal, so NULLs group together,
// -0 groups with 0, and a value never groups with one of another class.
func groupWords(dst []uint64, keys []data.Value) {
	k := len(keys)
	clear(dst)
	for i, v := range keys {
		if !v.IsNull() {
			dst[i] = wordKey(v)
		}
		dst[k+i/32] |= keyTag(v.K) << (2 * (i % 32))
	}
}

// joinKeyRules decides how each key position of a hash join whose sides
// are declared l and r turns a value into its word. Equal words must be
// a superset of data.Compare equality, which the join predicate
// re-checks on every candidate pair:
//   - one kind on both sides, or kinds of one class (int, date, bool):
//     wordKey, the payload;
//   - an int side against a float side (viaFloat): the value's float64
//     bits, because data.Compare compares such a pair as float64
//     values, so 2^53+1 equals 2^53.0;
//   - kinds of different classes, such as a string against a number:
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
