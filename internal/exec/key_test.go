package exec

import (
	"math"
	"testing"

	"repro/internal/data"
)

// TestWordKeyPath pins which keys hash by 8 bytes and how: one kind on
// both sides takes the word path, an int side against a float side
// keeps the byte encoder's float64 rule, and the word of a value keeps
// the encoder's equalities (-0 = 0; 2^53 and 2^53+1 apart; strings by
// code).
func TestWordKeyPath(t *testing.T) {
	for _, c := range []struct {
		l, r data.Kind
		want bool
	}{
		{data.KindInt, data.KindInt, true}, {data.KindString, data.KindString, true},
		{data.KindDate, data.KindDate, true}, {data.KindFloat, data.KindFloat, true},
		{data.KindInt, data.KindFloat, false}, {data.KindFloat, data.KindInt, false},
	} {
		if got := wordKeyed(c.l, c.r); got != c.want {
			t.Errorf("wordKeyed(%s, %s) = %v", c.l, c.r, got)
		}
	}
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

// TestGroupOfWordPath: a single group key of the declared kind groups by
// its word, NULL has a group of its own, and a value of another kind
// falls back to the byte encoder without merging with a word group.
func TestGroupOfWordPath(t *testing.T) {
	a := &aggIter{wordKind: data.KindInt, nullGroup: -1, words: map[uint64]int{}}
	keys := []data.Value{{}}
	group := func(v data.Value) int {
		keys[0] = v
		return a.groupOf(keys)
	}
	g1, gNull, g2 := group(data.NewInt(1<<53)), group(data.Null()), group(data.NewInt(1<<53+1))
	if g1 == g2 || g1 == gNull || g2 == gNull {
		t.Fatalf("groups %d %d %d must differ", g1, gNull, g2)
	}
	if group(data.NewInt(1<<53)) != g1 || group(data.Null()) != gNull {
		t.Error("equal keys must share a group")
	}
	if gf := group(data.NewFloat(1 << 53)); gf == g1 || a.groups == nil {
		t.Errorf("a float key in an int grouping took group %d via the word path", gf)
	}
	if len(a.order) != 4 {
		t.Errorf("%d groups, want 4", len(a.order))
	}
}
