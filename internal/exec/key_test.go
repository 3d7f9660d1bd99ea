package exec

import (
	"math"
	"slices"
	"testing"

	"repro/internal/data"
)

// TestWordKeyPath pins the word of a value: -0 = 0; 2^53 and 2^53+1
// apart; strings by code.
func TestWordKeyPath(t *testing.T) {
	if wordKey(data.NewFloat(math.Copysign(0, -1))) != wordKey(data.NewFloat(0)) {
		t.Error("-0 and 0 hash apart")
	}
	if wordKey(data.NewInt(1<<53)) == wordKey(data.NewInt(1<<53+1)) {
		t.Error("2^53 and 2^53+1 share a key")
	}
	strs := data.NewStrings()
	x, y := strs.Intern("x"), strs.Intern("y")
	if wordKey(x) == wordKey(y) || wordKey(x) != wordKey(strs.Intern("x")) {
		t.Error("string keys must be their codes")
	}
}

// TestGroupOfWordPath: a group key groups by its words, so 2^53 and
// 2^53+1 stay apart, NULL has a group of its own, equal keys share a
// group, and a float value never joins an int group of equal number.
func TestGroupOfWordPath(t *testing.T) {
	a := &aggIter{keys: make([]data.Value, 1), key: make([]uint64, groupWidth(1))}
	a.table = hashTable{k: len(a.key)}
	a.table.index()
	group := func(v data.Value) int {
		a.keys[0] = v
		groupWords(a.key, a.keys)
		return a.groupOf()
	}
	g1, gNull, g2 := group(data.NewInt(1<<53)), group(data.Null()), group(data.NewInt(1<<53+1))
	if g1 == g2 || g1 == gNull || g2 == gNull {
		t.Fatalf("groups %d %d %d must differ", g1, gNull, g2)
	}
	if group(data.NewInt(1<<53)) != g1 || group(data.Null()) != gNull {
		t.Error("equal keys must share a group")
	}
	if gf := group(data.NewFloat(1 << 53)); gf == g1 {
		t.Errorf("a float key in an int grouping took the int group %d", gf)
	}
	if a.groups != 4 {
		t.Errorf("%d groups, want 4", a.groups)
	}
}

// FuzzGroupWords checks the words of keys against data.Compare. Each
// value's kind is ka or kb modulo 6 (NULL, bool, int, float, string,
// date) and its payload the matching argument. groupWords must be equal
// exactly when both values are NULL, or when both have one kind class
// and data.Compare finds them equal (NaN excluded: it compares equal to
// everything). keyWords, on a join position whose values share a's
// kind, must match exactly the non-NULL pairs data.Compare finds equal.
func FuzzGroupWords(f *testing.F) {
	const (
		null = iota
		boolean
		integer
		float
		str
		date
	)
	negZero := math.Copysign(0, -1)
	f.Add(uint8(integer), int64(1<<53), 0.0, "", uint8(integer), int64(1<<53+1), 0.0, "")
	f.Add(uint8(integer), int64(-1<<53), 0.0, "", uint8(integer), int64(-1<<53-1), 0.0, "")
	f.Add(uint8(integer), int64(1<<53), 0.0, "", uint8(float), int64(0), float64(1<<53), "")
	f.Add(uint8(integer), int64(-1<<53), 0.0, "", uint8(float), int64(0), float64(-1<<53), "")
	f.Add(uint8(float), int64(0), negZero, "", uint8(float), int64(0), 0.0, "")
	f.Add(uint8(float), int64(0), negZero, "", uint8(integer), int64(0), 0.0, "")
	f.Add(uint8(integer), int64(math.Float64bits(1.5)), 0.0, "", uint8(float), int64(0), 1.5, "")
	f.Add(uint8(null), int64(0), 0.0, "", uint8(integer), int64(0), 0.0, "")
	f.Add(uint8(null), int64(0), 0.0, "", uint8(float), int64(0), negZero, "")
	f.Add(uint8(null), int64(0), 0.0, "", uint8(null), int64(0), 0.0, "")
	f.Add(uint8(boolean), int64(0), 0.0, "", uint8(integer), int64(0), 0.0, "")
	f.Add(uint8(date), int64(9204), 0.0, "", uint8(integer), int64(9204), 0.0, "")
	f.Add(uint8(date), int64(9204), 0.0, "", uint8(date), int64(9205), 0.0, "")
	f.Add(uint8(str), int64(0), 0.0, "x", uint8(str), int64(0), 0.0, "x")
	f.Add(uint8(str), int64(0), 0.0, "x", uint8(str), int64(0), 0.0, "y")
	f.Add(uint8(str), int64(0), 0.0, "", uint8(integer), int64(0), 0.0, "")
	f.Fuzz(func(t *testing.T, ka uint8, ia int64, fa float64, sa string, kb uint8, ib int64, fb float64, sb string) {
		if math.IsNaN(fa) || math.IsNaN(fb) {
			return
		}
		strs := data.NewStrings()
		value := func(k uint8, i int64, f float64, s string) data.Value {
			switch k % 6 {
			case boolean:
				return data.NewBool(i&1 != 0)
			case integer:
				return data.NewInt(i)
			case float:
				return data.NewFloat(f)
			case str:
				return strs.Intern(s)
			case date:
				return data.NewDate(i)
			}
			return data.Null()
		}
		// class is the kind class: ints, dates and booleans are one,
		// compared as the integers they hold.
		class := func(v data.Value) (int, data.Value) {
			switch v.K {
			case data.KindBool, data.KindInt, data.KindDate:
				return 1, data.NewInt(v.Int())
			case data.KindFloat:
				return 2, v
			case data.KindString:
				return 3, v
			}
			return 0, v
		}
		compareEqual := func(a, b data.Value) bool {
			c, err := data.Compare(strs, a, b)
			return err == nil && c == 0
		}
		a, b := value(ka, ia, fa, sa), value(kb, ib, fb, sb)
		ca, na := class(a)
		cb, nb := class(b)
		want := a.IsNull() && b.IsNull() || !a.IsNull() && !b.IsNull() && ca == cb && compareEqual(na, nb)

		words := func(keys ...data.Value) []uint64 {
			w := make([]uint64, groupWidth(len(keys)))
			groupWords(w, keys)
			return w
		}
		if got := slices.Equal(words(a), words(b)); got != want {
			t.Errorf("groupWords(%v) == groupWords(%v) is %v, want %v", a, b, got, want)
		}
		if got := slices.Equal(words(a, b), words(b, a)); got != want {
			t.Errorf("groupWords(%v, %v) == groupWords(%v, %v) is %v, want %v", a, b, b, a, got, want)
		}

		if a.IsNull() {
			return
		}
		b = value(ka, ib, fb, sb) // b of a's kind
		wantJoin := compareEqual(a, b)
		wa, wb := make([]uint64, 1), make([]uint64, 1)
		okA := keyWords(wa, data.Row{a}, []int{0}, nil)
		okB := keyWords(wb, data.Row{b}, []int{0}, nil)
		if got := okA && okB && wa[0] == wb[0]; got != wantJoin {
			t.Errorf("keyWords joins %v with %v: %v, want %v", a, b, got, wantJoin)
		}
		if okNull := keyWords(wa, data.Row{data.Null()}, []int{0}, nil); okNull {
			t.Error("keyWords keyed a NULL")
		}
	})
}
