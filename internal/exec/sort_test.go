package exec

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/data"
)

// referenceSort is the sort sortRows replaced: sort.SliceStable with
// data.Compare as the comparator.
func referenceSort(rows []data.Row, keyPos []int, desc []bool, strs *data.Strings) {
	sort.SliceStable(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		for k, p := range keyPos {
			c, _ := data.Compare(strs, a[p], b[p])
			if c == 0 {
				continue
			}
			if desc[k] {
				return c > 0
			}
			return c < 0
		}
		return false
	})
}

// sortCase is one generated buffer: rows whose last column is the row's
// original index, and the key columns to sort on.
type sortCase struct {
	name   string
	rows   []data.Row
	keyPos []int
	desc   []bool
}

// genValue draws a value of one kind from a small domain, so that ties
// are common, with extremes mixed in.
func genValue(rng *rand.Rand, kind data.Kind, strs []data.Value) data.Value {
	switch kind {
	case data.KindInt:
		return data.NewInt([]int64{
			-3, -1, 0, 1, 2, 7, 1 << 53, 1<<53 + 1, -(1 << 53) - 1, math.MinInt64, math.MaxInt64,
		}[rng.Intn(11)])
	case data.KindFloat:
		return data.NewFloat([]float64{
			math.Copysign(0, -1), 0, -2.5, 1.5, 1 << 53, math.Inf(1), math.Inf(-1), -1e300, 3,
		}[rng.Intn(9)])
	case data.KindDate:
		return data.NewDate(int64(rng.Intn(5)) - 2)
	case data.KindBool:
		return data.NewBool(rng.Intn(2) == 0)
	default:
		return strs[rng.Intn(len(strs))]
	}
}

// genCase builds n rows whose key columns have the given kinds (one
// kind, or two for a mixed position), a share of them NULL.
func genCase(rng *rand.Rand, name string, n int, kinds [][]data.Kind, strs []data.Value, nulls bool) sortCase {
	c := sortCase{name: name}
	for i := range kinds {
		c.keyPos = append(c.keyPos, len(kinds)-1-i) // keys in reverse column order
		c.desc = append(c.desc, rng.Intn(2) == 0)
	}
	for r := range n {
		row := make(data.Row, len(kinds)+1)
		for col, ks := range kinds {
			if nulls && rng.Intn(6) == 0 {
				continue
			}
			row[col] = genValue(rng, ks[rng.Intn(len(ks))], strs)
		}
		row[len(kinds)] = data.NewInt(int64(r))
		c.rows = append(c.rows, row)
	}
	return c
}

func order(rows []data.Row) []int64 {
	ids := make([]int64, len(rows))
	for i, r := range rows {
		ids[i] = r[len(r)-1].Int()
	}
	return ids
}

// TestSortRowsMatchesSliceStable checks that sortRows leaves every
// generated buffer in exactly the order sort.SliceStable gives it: ties,
// NULLs, ASC/DESC, multi-key sorts, -0/+0, ints at 2^53 and 2^53+1,
// dates, bools, strings whose code order differs from their text order,
// and the buffers that keep data.Compare (a position mixing ints and
// floats, a NaN).
func TestSortRowsMatchesSliceStable(t *testing.T) {
	strs := data.NewStrings()
	var codes []data.Value // interned against text order
	for _, s := range []string{"zeta", "alpha", "", "mid", "Alpha", "alpha ", "b"} {
		codes = append(codes, strs.Intern(s))
	}
	local := strs.Overlay()
	codes = append(codes, local.Intern("aardvark"), local.Intern("zz"))

	rng := rand.New(rand.NewSource(1))
	kindsOf := map[string][]data.Kind{
		"int": {data.KindInt}, "float": {data.KindFloat}, "date": {data.KindDate},
		"bool": {data.KindBool}, "string": {data.KindString},
	}
	names := []string{"int", "float", "date", "bool", "string"}
	var cases []sortCase
	for i := range 400 {
		n := []int{0, 1, 2, 3, 19, 20, 21, 45, 200}[i%9]
		nk := 1 + rng.Intn(5)
		kinds := make([][]data.Kind, nk)
		name := ""
		for j := range kinds {
			kn := names[rng.Intn(len(names))]
			kinds[j] = kindsOf[kn]
			name += kn + ","
		}
		cases = append(cases, genCase(rng, name, n, kinds, codes, i%2 == 0))
	}
	mixed := []data.Kind{data.KindInt, data.KindFloat}
	for i := range 40 {
		n := []int{2, 20, 63, 150}[i%4]
		cases = append(cases,
			genCase(rng, "mixed", n, [][]data.Kind{mixed}, codes, i%2 == 0),
			genCase(rng, "mixed,int", n, [][]data.Kind{mixed, {data.KindInt}}, codes, false))
	}
	for i := range 20 {
		c := genCase(rng, "nan", 50, [][]data.Kind{{data.KindFloat}, {data.KindInt}}, codes, true)
		c.rows[rng.Intn(len(c.rows))][0] = data.NewFloat(math.NaN())
		if i%2 == 0 {
			c.rows[rng.Intn(len(c.rows))][0] = data.NewFloat(math.NaN())
		}
		cases = append(cases, c)
	}

	// Two int keys of wide spans: 2^12 to 2^21 values each, or two
	// values each, 2^32-3, 2^32 or 2^62 apart, whose spans multiply to
	// 2^64 and beyond.
	for i := range 20 {
		c := genCase(rng, "wide", 100, [][]data.Kind{{data.KindInt}, {data.KindInt}}, codes, i%2 == 0)
		for _, r := range c.rows {
			for col := range 2 {
				if !r[col].IsNull() {
					r[col] = data.NewInt(rng.Int63n(1<<(12+i%10)) - 5)
				}
			}
		}
		cases = append(cases, c)
	}
	for i := range 24 {
		span := []int64{1<<32 - 3, 1 << 32, 1 << 62}[i%3]
		c := genCase(rng, "two-valued", 40, [][]data.Kind{{data.KindInt}, {data.KindInt}}, codes, i%6 >= 3)
		c.desc = []bool{i%4 == 1 || i%4 == 3, i%4 >= 2}
		for _, r := range c.rows {
			for col := range 2 {
				if !r[col].IsNull() {
					r[col] = data.NewInt(span * rng.Int63n(2))
				}
			}
		}
		cases = append(cases, c)
	}

	for _, c := range cases {
		want := slices.Clone(c.rows)
		referenceSort(want, c.keyPos, c.desc, local)
		got := slices.Clone(c.rows)
		if err := sortRows(got, c.keyPos, c.desc, local); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if w, g := order(want), order(got); !slices.Equal(w, g) {
			t.Fatalf("%s (%d rows, keys %v, desc %v): order\n got %v\nwant %v", c.name, len(c.rows), c.keyPos, c.desc, g, w)
		}
	}
}

// TestSortRowsKindErrorIsDeterministic: a key position holding a string
// and an int is reported by decoration, as the same error on every run.
func TestSortRowsKindErrorIsDeterministic(t *testing.T) {
	strs := data.NewStrings()
	var rows []data.Row
	for i := range 60 {
		v := data.NewInt(int64(i % 7))
		if i%5 == 3 {
			v = strs.Intern("x")
		}
		rows = append(rows, data.Row{data.NewInt(int64(i)), v})
	}
	const want = "data: cannot compare INTEGER with VARCHAR"
	for range 10 {
		err := sortRows(slices.Clone(rows), []int{1, 0}, []bool{false, true}, strs)
		if err == nil || err.Error() != want {
			t.Fatalf("sortRows error %v, want %q", err, want)
		}
	}
	// A kind error in a later position wins over the data.Compare
	// fallback an earlier position needs.
	rows[0][0] = data.NewFloat(0.5)
	err := sortRows(slices.Clone(rows), []int{0, 1}, []bool{false, false}, strs)
	if err == nil || err.Error() != want {
		t.Fatalf("sortRows error %v, want %q", err, want)
	}
}
