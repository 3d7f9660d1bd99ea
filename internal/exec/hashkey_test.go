package exec_test

import (
	"math"
	"math/big"
	"sort"
	"testing"

	"repro/internal/catalog"
	"repro/internal/data"
	"repro/internal/engine"
	"repro/internal/memo"
	"repro/internal/plan"
	"repro/internal/storage"
)

// keyTable is one table of a hash-key fixture: its columns (the first
// one indexed, so index scans, merge joins and lookup joins enter the
// plan space) and its rows.
type keyTable struct {
	name string
	cols []catalog.Column
	rows []data.Row
}

func keyDB(t *testing.T, tables ...keyTable) *storage.DB {
	t.Helper()
	cat := catalog.New()
	for _, kt := range tables {
		cat.MustAdd(&catalog.Table{
			Name:        kt.name,
			Columns:     kt.cols,
			Indexes:     []catalog.Index{{Name: "idx_" + kt.name, KeyCols: []int{0}}},
			AvgRowBytes: 16,
		})
	}
	db := storage.NewDB(cat)
	for _, kt := range tables {
		tb, err := db.CreateTable(kt.name)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range kt.rows {
			if err := tb.Insert(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.ComputeStats(); err != nil {
		t.Fatal(err)
	}
	return db
}

// allPlansReturn executes every plan of sqlText and checks that each one
// returns exactly want (rows rendered by rowStrings, in any order). It
// returns how many plans used each operator, so callers can check that
// the implementation under test was among them.
func allPlansReturn(t *testing.T, db *storage.DB, sqlText string, want []string) map[memo.OpKind]int {
	t.Helper()
	p, err := engine.New(db).Prepare(sqlText)
	if err != nil {
		t.Fatal(err)
	}
	want = append([]string(nil), want...)
	sort.Strings(want)
	used := map[memo.OpKind]int{}
	err = p.Space.Enumerate(func(r *big.Int, pl *plan.Node) bool {
		res, err := p.Execute(pl)
		if err != nil {
			t.Fatalf("plan %s failed: %v\n%s", r, err, pl)
		}
		got := rowStrings(res)
		sort.Strings(got)
		same := len(got) == len(want)
		for i := 0; same && i < len(got); i++ {
			same = got[i] == want[i]
		}
		if !same {
			t.Fatalf("plan %s returned %v, want %v:\n%s", r, got, want, pl)
		}
		for _, op := range pl.Operators() {
			used[op.Op]++
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return used
}

// TestHashAggKeepsLargeIntKeysApart: 2^53 and 2^53+1 are distinct int64
// group keys, although they round to the same float64. Hash and stream
// aggregation must both keep them apart.
func TestHashAggKeepsLargeIntKeysApart(t *testing.T) {
	const k = int64(1) << 53
	db := keyDB(t, keyTable{
		name: "big",
		cols: []catalog.Column{{Name: "k", Kind: data.KindInt}, {Name: "v", Kind: data.KindInt}},
		rows: []data.Row{
			{data.NewInt(k), data.NewInt(1)},
			{data.NewInt(k + 1), data.NewInt(2)},
			{data.NewInt(k), data.NewInt(10)},
			{data.NewInt(-k - 1), data.NewInt(4)},
			{data.NewInt(-k), data.NewInt(8)},
		},
	})
	used := allPlansReturn(t, db, "SELECT k, SUM(v) AS s FROM big GROUP BY k", []string{
		"9007199254740992|11", "9007199254740993|2", "-9007199254740993|4", "-9007199254740992|8",
	})
	if used[memo.HashAgg] == 0 || used[memo.StreamAgg] == 0 {
		t.Errorf("plan space lacks an aggregate implementation: %v", used)
	}
}

// TestHashJoinMatchesNegativeZero: data.Compare says 0.0 = -0.0, so the
// hash join must match the pair just as nested-loop and merge joins do.
func TestHashJoinMatchesNegativeZero(t *testing.T) {
	floatTable := func(name string, xs ...float64) keyTable {
		kt := keyTable{name: name, cols: []catalog.Column{
			{Name: name + "x", Kind: data.KindFloat}, {Name: name + "id", Kind: data.KindInt},
		}}
		for i, x := range xs {
			kt.rows = append(kt.rows, data.Row{data.NewFloat(x), data.NewInt(int64(i))})
		}
		return kt
	}
	db := keyDB(t,
		floatTable("l", 0, 1.5, 7),
		floatTable("r", math.Copysign(0, -1), 1.5, 2, 0),
	)
	used := allPlansReturn(t, db, "SELECT lid, rid FROM l, r WHERE lx = rx", []string{
		"0|0", "0|3", "1|1",
	})
	if used[memo.HashJoin] == 0 {
		t.Errorf("plan space lacks a hash join: %v", used)
	}
}

// TestHashJoinIntFloatKeys: an int column equated with a float column is
// compared as float64, so 2^53+1 equals 2^53.0 there. The hash join
// hashes such a key position through float64 to find the same pairs as
// the other joins; the 2^53 pair guards that encoding int keys exactly
// does not split mixed-kind matches, and the 0 = -0 pair needs the -0
// normalisation.
func TestHashJoinIntFloatKeys(t *testing.T) {
	const k = int64(1) << 53
	db := keyDB(t,
		keyTable{name: "i", cols: []catalog.Column{{Name: "ik", Kind: data.KindInt}}, rows: []data.Row{
			{data.NewInt(k + 1)}, {data.NewInt(3)}, {data.NewInt(0)},
		}},
		keyTable{name: "f", cols: []catalog.Column{{Name: "fk", Kind: data.KindFloat}}, rows: []data.Row{
			{data.NewFloat(float64(k))}, {data.NewFloat(3)}, {data.NewFloat(3.5)}, {data.NewFloat(math.Copysign(0, -1))},
		}},
	)
	used := allPlansReturn(t, db, "SELECT ik, fk FROM i, f WHERE ik = fk", []string{
		"9007199254740993|9.00719925474e+15", "3|3", "0|-0",
	})
	if used[memo.HashJoin] == 0 {
		t.Errorf("plan space lacks a hash join: %v", used)
	}
}
