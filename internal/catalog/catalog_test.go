package catalog

import (
	"strings"
	"testing"

	"repro/internal/data"
)

func sampleTable() *Table {
	return &Table{
		Name: "t",
		Columns: []Column{
			{Name: "a", Kind: data.KindInt},
			{Name: "b", Kind: data.KindString},
		},
		Indexes:     []Index{{Name: "pk", KeyCols: []int{0}, Unique: true}},
		RowCount:    1000,
		AvgRowBytes: 64,
	}
}

func TestAddAndLookup(t *testing.T) {
	c := New()
	if err := c.Add(sampleTable()); err != nil {
		t.Fatalf("Add: %v", err)
	}
	tbl, ok := c.Table("t")
	if !ok || tbl.Name != "t" {
		t.Fatal("Table lookup failed")
	}
	if _, ok := c.Table("missing"); ok {
		t.Error("lookup of missing table succeeded")
	}
	if got := len(c.Tables()); got != 1 {
		t.Errorf("Tables() = %d entries", got)
	}
}

func TestAddRejectsDuplicates(t *testing.T) {
	c := New()
	if err := c.Add(sampleTable()); err != nil {
		t.Fatal(err)
	}
	if err := c.Add(sampleTable()); err == nil {
		t.Error("duplicate table accepted")
	}
}

func TestAddRejectsBadSchemas(t *testing.T) {
	c := New()
	if err := c.Add(&Table{}); err == nil {
		t.Error("unnamed table accepted")
	}
	if err := c.Add(&Table{
		Name:    "dupcol",
		Columns: []Column{{Name: "x", Kind: data.KindInt}, {Name: "x", Kind: data.KindInt}},
	}); err == nil {
		t.Error("duplicate column accepted")
	}
	if err := c.Add(&Table{
		Name:    "badidx",
		Columns: []Column{{Name: "x", Kind: data.KindInt}},
		Indexes: []Index{{Name: "i", KeyCols: []int{5}}},
	}); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("out-of-range index key accepted: %v", err)
	}
	if err := c.Add(&Table{
		Name:    "emptyidx",
		Columns: []Column{{Name: "x", Kind: data.KindInt}},
		Indexes: []Index{{Name: "i"}},
	}); err == nil {
		t.Error("empty index key accepted")
	}
}

func TestMustAddPanics(t *testing.T) {
	c := New()
	c.MustAdd(sampleTable())
	defer func() {
		if recover() == nil {
			t.Error("MustAdd did not panic on duplicate")
		}
	}()
	c.MustAdd(sampleTable())
}

func TestColIndex(t *testing.T) {
	tbl := sampleTable()
	if i := tbl.ColIndex("b"); i != 1 {
		t.Errorf("ColIndex(b) = %d", i)
	}
	if i := tbl.ColIndex("zzz"); i != -1 {
		t.Errorf("ColIndex(zzz) = %d, want -1", i)
	}
}

func TestPages(t *testing.T) {
	tbl := sampleTable() // 1000 rows * 64B = 64000B
	if got := tbl.Pages(8192); got < 7.8 || got > 7.9 {
		t.Errorf("Pages = %g, want ~7.8", got)
	}
	empty := &Table{Name: "e", RowCount: 0, AvgRowBytes: 64}
	if got := empty.Pages(8192); got != 1 {
		t.Errorf("empty table Pages = %g, want 1 (floor)", got)
	}
	// Zero page size falls back to a default rather than dividing by zero.
	if got := tbl.Pages(0); got <= 0 {
		t.Errorf("Pages with zero page size = %g", got)
	}
}

func TestNamesSortedAndOrderPreserved(t *testing.T) {
	c := New()
	c.MustAdd(&Table{Name: "zeta", Columns: []Column{{Name: "x", Kind: data.KindInt}}})
	c.MustAdd(&Table{Name: "alpha", Columns: []Column{{Name: "x", Kind: data.KindInt}}})
	names := c.Names()
	if names[0] != "alpha" || names[1] != "zeta" {
		t.Errorf("Names not sorted: %v", names)
	}
	tables := c.Tables()
	if tables[0].Name != "zeta" {
		t.Errorf("Tables should preserve registration order, got %s first", tables[0].Name)
	}
}

func TestVersionAndIdentity(t *testing.T) {
	a, b := New(), New()
	if a.ID() == b.ID() {
		t.Fatalf("catalogs share ID %d", a.ID())
	}
	if a.Version() != 0 {
		t.Fatalf("fresh catalog version = %d, want 0", a.Version())
	}
	a.MustAdd(&Table{Name: "t", Columns: []Column{{Name: "x", Kind: data.KindInt}}})
	if a.Version() != 1 {
		t.Errorf("version after Add = %d, want 1", a.Version())
	}
	if v := a.BumpStats(); v != 2 || a.Version() != 2 {
		t.Errorf("BumpStats = %d, Version = %d, want 2, 2", v, a.Version())
	}
	if b.Version() != 0 {
		t.Errorf("bumping one catalog moved another: %d", b.Version())
	}
	// Failed adds must not move the version.
	before := a.Version()
	if err := a.Add(&Table{Name: "t"}); err == nil {
		t.Fatal("duplicate Add succeeded")
	}
	if a.Version() != before {
		t.Errorf("failed Add bumped version %d -> %d", before, a.Version())
	}
}
