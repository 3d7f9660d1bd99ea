package storage

import (
	"fmt"
	"testing"

	"repro/internal/catalog"
	"repro/internal/data"
)

func testDB(t *testing.T) (*DB, *Table) {
	t.Helper()
	cat := catalog.New()
	cat.MustAdd(&catalog.Table{
		Name: "t",
		Columns: []catalog.Column{
			{Name: "k", Kind: data.KindInt},
			{Name: "s", Kind: data.KindString},
		},
		Indexes:     []catalog.Index{{Name: "by_k", KeyCols: []int{0}}},
		AvgRowBytes: 32,
	})
	db := NewDB(cat)
	tbl, err := db.CreateTable("t")
	if err != nil {
		t.Fatal(err)
	}
	return db, tbl
}

func TestCreateTableErrors(t *testing.T) {
	db, _ := testDB(t)
	if _, err := db.CreateTable("t"); err == nil {
		t.Error("double CreateTable succeeded")
	}
	if _, err := db.CreateTable("nope"); err == nil {
		t.Error("CreateTable for unknown table succeeded")
	}
	if _, err := db.Table("nope"); err == nil {
		t.Error("Table lookup for unknown table succeeded")
	}
}

func TestInsertChecksArityAndKinds(t *testing.T) {
	_, tbl := testDB(t)
	if err := tbl.Insert(data.NewInt(1)); err == nil {
		t.Error("short row accepted")
	}
	if err := tbl.Insert("x", "y"); err == nil {
		t.Error("wrong kind accepted")
	}
	if err := tbl.Insert(data.NewInt(1), "y"); err != nil {
		t.Errorf("valid row rejected: %v", err)
	}
	// NULLs are allowed in any column.
	if err := tbl.Insert(data.Null(), data.Null()); err != nil {
		t.Errorf("NULL row rejected: %v", err)
	}
}

func TestIndexOrder(t *testing.T) {
	_, tbl := testDB(t)
	for _, k := range []int64{5, 1, 4, 2, 3} {
		if err := tbl.Insert(data.NewInt(k), "v"); err != nil {
			t.Fatal(err)
		}
	}
	idx := &tbl.Def.Indexes[0]
	perm, err := tbl.IndexOrder(idx)
	if err != nil {
		t.Fatal(err)
	}
	prev := int64(-1 << 62)
	for _, p := range perm {
		k := tbl.Rows[p][0].Int()
		if k < prev {
			t.Fatalf("index order not sorted: %d after %d", k, prev)
		}
		prev = k
	}
	// Second call returns the cached permutation.
	perm2, err := tbl.IndexOrder(idx)
	if err != nil {
		t.Fatal(err)
	}
	if &perm[0] != &perm2[0] {
		t.Error("IndexOrder did not cache")
	}
	// Insert invalidates the cache.
	if err := tbl.Insert(data.NewInt(0), "v"); err != nil {
		t.Fatal(err)
	}
	perm3, err := tbl.IndexOrder(idx)
	if err != nil {
		t.Fatal(err)
	}
	if len(perm3) != len(perm)+1 {
		t.Errorf("stale index order after insert: %d entries", len(perm3))
	}
}

func TestIndexOrderStableOnDuplicates(t *testing.T) {
	_, tbl := testDB(t)
	for i, k := range []int64{2, 1, 2, 1} {
		if err := tbl.Insert(data.NewInt(k), string(rune('a'+i))); err != nil {
			t.Fatal(err)
		}
	}
	perm, err := tbl.IndexOrder(&tbl.Def.Indexes[0])
	if err != nil {
		t.Fatal(err)
	}
	// Stable sort: equal keys preserve insertion order: rows 1,3 (k=1)
	// then rows 0,2 (k=2).
	want := []int32{1, 3, 0, 2}
	for i, p := range perm {
		if p != want[i] {
			t.Fatalf("perm = %v, want %v", perm, want)
		}
	}
}

func TestComputeStats(t *testing.T) {
	db, tbl := testDB(t)
	vals := []int64{3, 1, 4, 1, 5}
	for _, k := range vals {
		if err := tbl.Insert(data.NewInt(k), "s"); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Insert(data.Null(), "s"); err != nil {
		t.Fatal(err)
	}
	if err := db.ComputeStats(); err != nil {
		t.Fatal(err)
	}
	def := tbl.Def
	if def.RowCount != 6 {
		t.Errorf("RowCount = %d", def.RowCount)
	}
	st := def.Columns[0].Stats
	if st.NDV != 4 {
		t.Errorf("NDV = %d, want 4", st.NDV)
	}
	if st.Min.Int() != 1 || st.Max.Int() != 5 {
		t.Errorf("min/max = %v/%v", st.Min, st.Max)
	}
	if st.NullCount != 1 {
		t.Errorf("NullCount = %d", st.NullCount)
	}
	if sst := def.Columns[1].Stats; sst.NDV != 1 {
		t.Errorf("string NDV = %d, want 1", sst.NDV)
	}
}

func TestComputeStatsEmptyTable(t *testing.T) {
	db, tbl := testDB(t)
	if err := db.ComputeStats(); err != nil {
		t.Fatal(err)
	}
	if tbl.Def.Columns[0].Stats.NDV != 1 {
		t.Error("empty table NDV should floor at 1 to avoid division by zero in selectivity")
	}
}

func TestEquiDepthHistogramBounds(t *testing.T) {
	db, tbl := testDB(t)
	// Skewed data: 90 ones and the values 1..10 once each.
	for i := 0; i < 90; i++ {
		if err := tbl.Insert(data.NewInt(1), "x"); err != nil {
			t.Fatal(err)
		}
	}
	for k := int64(1); k <= 10; k++ {
		if err := tbl.Insert(data.NewInt(k), "x"); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.ComputeStats(); err != nil {
		t.Fatal(err)
	}
	st := tbl.Def.Columns[0].Stats
	if len(st.HistBounds) == 0 {
		t.Fatal("no histogram collected for 100 rows")
	}
	// Bounds must be sorted and end at the max.
	for i := 1; i < len(st.HistBounds); i++ {
		c, err := data.Compare(nil, st.HistBounds[i-1], st.HistBounds[i])
		if err != nil || c > 0 {
			t.Fatalf("bounds not sorted at %d: %v", i, err)
		}
	}
	last := st.HistBounds[len(st.HistBounds)-1]
	if !data.Equal(last, st.Max) {
		t.Errorf("last bound %v != max %v", last, st.Max)
	}
	// With 90% of values = 1, most bounds equal 1 (equi-DEPTH).
	ones := 0
	for _, b := range st.HistBounds {
		if b.Int() == 1 {
			ones++
		}
	}
	if ones < len(st.HistBounds)/2 {
		t.Errorf("equi-depth property violated: only %d of %d bounds at the mode", ones, len(st.HistBounds))
	}
}

func TestNoHistogramForTinyTables(t *testing.T) {
	db, tbl := testDB(t)
	for k := int64(0); k < 5; k++ {
		if err := tbl.Insert(data.NewInt(k), "x"); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.ComputeStats(); err != nil {
		t.Fatal(err)
	}
	if len(tbl.Def.Columns[0].Stats.HistBounds) != 0 {
		t.Error("histogram collected for a 5-row table")
	}
}

// TestInsertInterns: string cells enter the DB's table of strings once
// per distinct text, and other cell forms are checked.
func TestInsertInterns(t *testing.T) {
	db, tbl := testDB(t)
	for _, s := range []string{"b", "a", "b"} {
		if err := tbl.Insert(1, s); err != nil {
			t.Fatal(err)
		}
	}
	if n := db.Strings().Len(); n != 2 {
		t.Errorf("%d codes for 2 distinct texts", n)
	}
	if tbl.Rows[0][1] != tbl.Rows[2][1] || tbl.Rows[0][1] == tbl.Rows[1][1] {
		t.Error("equal texts must share a code, distinct ones not")
	}
	if got := db.Strings().Text(tbl.Rows[1][1]); got != "a" {
		t.Errorf("stored %q, want a", got)
	}
	if err := tbl.Insert(1, db.Strings().Intern("c")); err == nil {
		t.Error("a string value accepted; string cells are Go strings")
	}
	if err := tbl.Insert(int32(1), "x"); err == nil {
		t.Error("an int32 cell accepted")
	}
}

// TestStringStatsReadText: a string column's statistics order by text,
// not code, and carry the table that resolves their codes.
func TestStringStatsReadText(t *testing.T) {
	db, tbl := testDB(t)
	for i, s := range []string{"m", "z", "a", "q"} {
		if err := tbl.Insert(i, s); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.ComputeStats(); err != nil {
		t.Fatal(err)
	}
	st := tbl.Def.Columns[1].Stats
	if st.Strings != db.Strings() {
		t.Fatal("string column statistics lack the DB's table")
	}
	if lo, hi := st.Strings.Text(st.Min), st.Strings.Text(st.Max); lo != "a" || hi != "z" {
		t.Errorf("min/max = %q/%q, want a/z", lo, hi)
	}
	if tbl.Def.Columns[0].Stats.Strings != nil {
		t.Error("an int column's statistics carry a string table")
	}
}

// TestStringsReadableWhileInserting: resolving stored strings takes no
// lock, so under -race it must not race with a goroutine inserting rows
// that intern new texts.
func TestStringsReadableWhileInserting(t *testing.T) {
	db, tbl := testDB(t)
	for i := 0; i < 50; i++ {
		if err := tbl.Insert(i, fmt.Sprintf("old%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	old := append([]data.Row(nil), tbl.Rows...)
	done := make(chan error)
	go func() {
		for i := 0; i < 3000; i++ {
			if err := tbl.Insert(i, fmt.Sprintf("new%d", i)); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for round := 0; round < 20; round++ {
		for i, row := range old {
			if got := db.Strings().Text(row[1]); got != fmt.Sprintf("old%d", i) {
				t.Fatalf("row %d reads %q", i, got)
			}
			if _, ok := db.Strings().Lookup(fmt.Sprintf("old%d", i)); !ok {
				t.Fatalf("old%d not found", i)
			}
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
