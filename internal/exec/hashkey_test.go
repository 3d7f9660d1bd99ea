package exec_test

import (
	"math"
	"math/big"
	"slices"
	"sort"
	"testing"

	"repro/internal/catalog"
	"repro/internal/data"
	"repro/internal/engine"
	"repro/internal/exec"
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
	rows [][]any // cells as Table.Insert takes them
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
			if err := tb.Insert(r...); err != nil {
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
		rows: [][]any{
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
			kt.rows = append(kt.rows, []any{x, i})
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
		keyTable{name: "i", cols: []catalog.Column{{Name: "ik", Kind: data.KindInt}}, rows: [][]any{
			{k + 1}, {int64(3)}, {int64(0)},
		}},
		keyTable{name: "f", cols: []catalog.Column{{Name: "fk", Kind: data.KindFloat}}, rows: [][]any{
			{float64(k)}, {3.0}, {3.5}, {math.Copysign(0, -1)},
		}},
	)
	used := allPlansReturn(t, db, "SELECT ik, fk FROM i, f WHERE ik = fk", []string{
		"9007199254740993|9.00719925474e+15", "3|3", "0|-0",
	})
	if used[memo.HashJoin] == 0 {
		t.Errorf("plan space lacks a hash join: %v", used)
	}
}

// TestHashKeysStringCodes: a string key hashes by its 8-byte code, as
// the only key and beside another key; both must find every equal-text
// pair, never join NULL keys, and group NULL keys together.
func TestHashKeysStringCodes(t *testing.T) {
	db := keyDB(t,
		keyTable{name: "a", cols: []catalog.Column{
			{Name: "sa", Kind: data.KindString}, {Name: "ai", Kind: data.KindInt},
		}, rows: [][]any{
			{"x", int64(1)}, {"y", int64(2)}, {nil, int64(3)}, {"x", int64(4)}, {"zz", int64(5)},
		}},
		keyTable{name: "b", cols: []catalog.Column{
			{Name: "sb", Kind: data.KindString}, {Name: "bi", Kind: data.KindInt},
		}, rows: [][]any{
			{"x", int64(1)}, {nil, int64(3)}, {"y", int64(9)}, {"w", int64(2)},
		}},
	)
	// One key: one word.
	used := allPlansReturn(t, db, "SELECT ai, bi FROM a, b WHERE sa = sb", []string{
		"1|1", "4|1", "2|9",
	})
	if used[memo.HashJoin] == 0 || used[memo.MergeJoin] == 0 || used[memo.IndexNLJoin] == 0 {
		t.Errorf("plan space lacks a hash, merge or index nested-loop join: %v", used)
	}
	// Two keys: a word each.
	used = allPlansReturn(t, db, "SELECT ai, bi FROM a, b WHERE sa = sb AND ai = bi", []string{
		"1|1",
	})
	if used[memo.HashJoin] == 0 || used[memo.MergeJoin] == 0 || used[memo.IndexNLJoin] == 0 {
		t.Errorf("plan space lacks a hash, merge or index nested-loop join: %v", used)
	}
	// Grouping by a string: NULL keys form one group, alone and beside
	// another key.
	allPlansReturn(t, db, "SELECT sa, COUNT(ai) AS n FROM a GROUP BY sa", []string{
		"NULL|1", "x|2", "y|1", "zz|1",
	})
	allPlansReturn(t, db, "SELECT sa, ai, COUNT(ai) AS n FROM a GROUP BY sa, ai", []string{
		"NULL|3|1", "x|1|1", "x|4|1", "y|2|1", "zz|5|1",
	})
}

// TestMultiColumnKeysKeepIntAndZeroRules runs the 2^53 and -0 cases
// through two-column keys, next to the single-key tests above: 2^53 and
// 2^53+1 stay apart as int64 group and join keys, and -0 joins 0 as a
// float key.
func TestMultiColumnKeysKeepIntAndZeroRules(t *testing.T) {
	const k = int64(1) << 53
	db := keyDB(t,
		keyTable{name: "p", cols: []catalog.Column{
			{Name: "pk", Kind: data.KindInt}, {Name: "pf", Kind: data.KindFloat}, {Name: "pv", Kind: data.KindInt},
		}, rows: [][]any{
			{k, 0.0, int64(1)}, {k + 1, 0.0, int64(2)}, {k, 1.5, int64(4)}, {nil, 0.0, int64(8)},
		}},
		keyTable{name: "q", cols: []catalog.Column{
			{Name: "qk", Kind: data.KindInt}, {Name: "qf", Kind: data.KindFloat}, {Name: "qv", Kind: data.KindInt},
		}, rows: [][]any{
			{k, math.Copysign(0, -1), int64(10)}, {k + 1, 0.0, int64(20)}, {k + 1, 1.5, int64(40)},
		}},
	)
	used := allPlansReturn(t, db, "SELECT pv, qv FROM p, q WHERE pk = qk AND pf = qf", []string{
		"1|10", "2|20",
	})
	if used[memo.MergeJoin] == 0 || used[memo.IndexNLJoin] == 0 {
		t.Errorf("plan space lacks a merge or index nested-loop join: %v", used)
	}
	allPlansReturn(t, db, "SELECT pk, pf, SUM(pv) AS s FROM p GROUP BY pk, pf", []string{
		"9007199254740992|0|1", "9007199254740993|0|2", "9007199254740992|1.5|4", "NULL|0|8",
	})
}

// TestHashJoinSharedBucketChargesNothing: distinct keys that share a
// hash bucket. A probe passes the other keys' rows by their words and
// charges nothing for them, and the range join of merge and index
// nested-loop join plans charges nothing for the inner rows its key
// search passes over. So with an equality-only join predicate no plan of
// the space examines a row it does not emit: RowsExamined is the sum of
// the operators' rows, as it was when every key had a bucket of its own.
// Each table also holds a row with a NULL key, which joins nothing and
// so must be examined by no join either. The space must hold hash,
// merge and index nested-loop join plans.
func TestHashJoinSharedBucketChargesNothing(t *testing.T) {
	const n = 4 // build rows on either side: a table of 4 buckets
	keys := []int64{1}
	for k := int64(2); len(keys) < 3; k++ {
		if exec.HashBucket(n, uint64(k)) == exec.HashBucket(n, 1) {
			keys = append(keys, k)
		}
	}
	a, b, c := keys[0], keys[1], keys[2]
	intTable := func(name string, ks ...int64) keyTable {
		kt := keyTable{name: name, cols: []catalog.Column{
			{Name: name + "k", Kind: data.KindInt}, {Name: name + "id", Kind: data.KindInt},
		}}
		for i, k := range ks {
			kt.rows = append(kt.rows, []any{k, int64(i)})
		}
		kt.rows = append(kt.rows, []any{nil, int64(len(ks))})
		return kt
	}
	db := keyDB(t, intTable("l", a, b, c, b), intTable("r", c, a, a, 99))
	p, err := engine.New(db).Prepare("SELECT lid, rid FROM l, r WHERE lk = rk")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"0|1", "0|2", "2|0"}
	used := map[memo.OpKind]int{}
	err = p.Space.Enumerate(func(r *big.Int, pl *plan.Node) bool {
		for _, op := range pl.Operators() {
			used[op.Op]++
		}
		res, err := p.Execute(pl)
		if err != nil {
			t.Fatalf("plan %s: %v", r, err)
		}
		got := rowStrings(res)
		sort.Strings(got)
		if !slices.Equal(got, want) {
			t.Fatalf("plan %s returned %v, want %v:\n%s", r, got, want, pl)
		}
		var emitted int64
		for _, op := range res.Stats.Operators {
			emitted += op.Rows
		}
		if res.Stats.RowsExamined != emitted {
			t.Errorf("plan %s examined %d rows but its operators emitted %d:\n%s", r, res.Stats.RowsExamined, emitted, pl)
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if used[memo.HashJoin] == 0 || used[memo.MergeJoin] == 0 || used[memo.IndexNLJoin] == 0 {
		t.Errorf("plan space lacks a hash, merge or index nested-loop join: %v", used)
	}
}
