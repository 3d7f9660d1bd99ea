package storage_test

import (
	"slices"
	"testing"

	"repro/internal/data"
	"repro/internal/tpch"
)

// TestHistogramBoundsMatchStableSort: the histogram bounds of every
// TPC-H column at sf 0.001, seed 42, equal those a stable sort of the
// column's non-NULL values picks. The data holds no NaN, and no float
// column holds both -0 and 0, the values on which the two may differ.
func TestHistogramBoundsMatchStableSort(t *testing.T) {
	db, err := tpch.NewDB(0.001, 42)
	if err != nil {
		t.Fatal(err)
	}
	const buckets = 16
	checked := 0
	for _, name := range db.Catalog().Names() {
		tbl, err := db.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		for ci, col := range tbl.Def.Columns {
			var vals []data.Value
			for _, row := range tbl.Rows {
				if !row[ci].IsNull() {
					vals = append(vals, row[ci])
				}
			}
			var want []data.Value
			if len(vals) >= 2*buckets {
				slices.SortStableFunc(vals, func(a, b data.Value) int {
					c, err := data.Compare(db.Strings(), a, b)
					if err != nil {
						t.Fatal(err)
					}
					return c
				})
				for i := range buckets {
					want = append(want, vals[(i+1)*len(vals)/buckets-1])
				}
				checked++
			}
			if got := col.Stats.HistBounds; !slices.Equal(got, want) {
				t.Errorf("%s.%s: bounds %v, a stable sort gives %v", name, col.Name, got, want)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no column has a histogram")
	}
}
