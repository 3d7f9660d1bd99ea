package tpch

import (
	"testing"

	"repro/internal/data"
	"repro/internal/storage"
)

func TestSchemaComplete(t *testing.T) {
	cat := Schema()
	wantTables := []string{"region", "nation", "supplier", "part", "partsupp", "customer", "orders", "lineitem"}
	for _, name := range wantTables {
		tbl, ok := cat.Table(name)
		if !ok {
			t.Errorf("missing table %s", name)
			continue
		}
		if len(tbl.Indexes) == 0 {
			t.Errorf("%s has no indexes", name)
		}
		if tbl.AvgRowBytes <= 0 {
			t.Errorf("%s has no row width", name)
		}
	}
	li, _ := cat.Table("lineitem")
	if len(li.Columns) != 16 {
		t.Errorf("lineitem has %d columns, want 16", len(li.Columns))
	}
}

func TestRowsForScaling(t *testing.T) {
	r := RowsFor(0.001)
	if r.Orders != 1500 || r.Customer != 150 || r.Supplier != 10 || r.Part != 200 {
		t.Errorf("RowsFor(0.001) = %+v", r)
	}
	// Floors keep micro scales joinable.
	small := RowsFor(0.000001)
	if small.Supplier < 5 || small.Customer < 20 || small.Orders < 50 {
		t.Errorf("floors not applied: %+v", small)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a, err := NewDB(0.0003, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewDB(0.0003, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"nation", "orders", "lineitem"} {
		ta, _ := a.Table(name)
		tb, _ := b.Table(name)
		if len(ta.Rows) != len(tb.Rows) {
			t.Fatalf("%s row counts differ", name)
		}
		for i := range ta.Rows {
			for j := range ta.Rows[i] {
				if !data.Equal(ta.Rows[i][j], tb.Rows[i][j]) {
					t.Fatalf("%s row %d col %d differs", name, i, j)
				}
			}
		}
	}
	c, err := NewDB(0.0003, 8)
	if err != nil {
		t.Fatal(err)
	}
	tc, _ := c.Table("lineitem")
	ta, _ := a.Table("lineitem")
	same := len(tc.Rows) == len(ta.Rows)
	if same {
		diff := false
		for i := range ta.Rows {
			if !data.Equal(ta.Rows[i][5], tc.Rows[i][5]) {
				diff = true
				break
			}
		}
		same = !diff
	}
	if same {
		t.Error("different seeds generated identical lineitem data")
	}
}

func TestReferentialIntegrity(t *testing.T) {
	db, err := NewDB(0.0003, 7)
	if err != nil {
		t.Fatal(err)
	}
	get := func(name string) *storage.Table {
		tbl, err := db.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	nations := get("nation")
	if len(nations.Rows) != 25 {
		t.Fatalf("nations = %d", len(nations.Rows))
	}
	regions := get("region")
	if len(regions.Rows) != 5 {
		t.Fatalf("regions = %d", len(regions.Rows))
	}
	for _, n := range nations.Rows {
		rk := n[2].Int()
		if rk < 0 || rk > 4 {
			t.Errorf("nation %s has bad region %d", db.Strings().Text(n[1]), rk)
		}
	}
	customers := get("customer")
	orders := get("orders")
	nCust := int64(len(customers.Rows))
	for _, o := range orders.Rows {
		ck := o[1].Int()
		if ck < 1 || ck > nCust {
			t.Errorf("order %d references customer %d of %d", o[0].Int(), ck, nCust)
		}
	}
	suppliers := get("supplier")
	nSupp := int64(len(suppliers.Rows))
	lineitems := get("lineitem")
	nOrders := int64(len(orders.Rows))
	nParts := int64(len(get("part").Rows))
	for _, l := range lineitems.Rows {
		if ok := l[0].Int(); ok < 1 || ok > nOrders {
			t.Fatalf("lineitem references order %d", ok)
		}
		if pk := l[1].Int(); pk < 1 || pk > nParts {
			t.Fatalf("lineitem references part %d", pk)
		}
		if sk := l[2].Int(); sk < 1 || sk > nSupp {
			t.Fatalf("lineitem references supplier %d", sk)
		}
		ship, commit, receipt := l[10].Int(), l[11].Int(), l[12].Int()
		if receipt <= ship {
			t.Fatalf("receipt %d not after ship %d", receipt, ship)
		}
		_ = commit
	}
	ps := get("partsupp")
	if len(ps.Rows) != 4*len(get("part").Rows) {
		t.Errorf("partsupp = %d rows, want 4 per part", len(ps.Rows))
	}
}

func TestValueDomainsCoverQueryConstants(t *testing.T) {
	db, err := NewDB(0.001, 7)
	if err != nil {
		t.Fatal(err)
	}
	// The constants the paper's queries select on must exist.
	nation, _ := db.Table("nation")
	names := map[string]bool{}
	for _, r := range nation.Rows {
		names[db.Strings().Text(r[1])] = true
	}
	for _, want := range []string{"FRANCE", "GERMANY", "BRAZIL"} {
		if !names[want] {
			t.Errorf("nation %s missing", want)
		}
	}
	region, _ := db.Table("region")
	rnames := map[string]bool{}
	for _, r := range region.Rows {
		rnames[db.Strings().Text(r[1])] = true
	}
	for _, want := range []string{"ASIA", "AMERICA"} {
		if !rnames[want] {
			t.Errorf("region %s missing", want)
		}
	}
	// Q9 needs parts whose name contains "green"; Q8 needs the type
	// 'ECONOMY ANODIZED STEEL' to be generatable.
	part, _ := db.Table("part")
	greens := 0
	for _, r := range part.Rows {
		if contains := db.Strings().Text(r[1]); len(contains) > 0 {
			if algebraLikeGreen(contains) {
				greens++
			}
		}
	}
	if greens == 0 {
		t.Error("no part names contain 'green'; Q9 would be empty")
	}
}

func algebraLikeGreen(s string) bool {
	for i := 0; i+5 <= len(s); i++ {
		if s[i:i+5] == "green" {
			return true
		}
	}
	return false
}

func TestStatsComputed(t *testing.T) {
	db, err := NewDB(0.0003, 7)
	if err != nil {
		t.Fatal(err)
	}
	orders, _ := db.Catalog().Table("orders")
	if orders.RowCount == 0 {
		t.Fatal("orders RowCount not computed")
	}
	dateStats := orders.Columns[4].Stats
	if dateStats.Min.IsNull() || dateStats.Max.IsNull() || dateStats.NDV == 0 {
		t.Errorf("o_orderdate stats missing: %+v", dateStats)
	}
	if y := data.Year(dateStats.Min.Int()); y != 1992 {
		t.Errorf("earliest order year = %d, want 1992", y)
	}
}

func TestQueriesCatalog(t *testing.T) {
	names := QueryNames()
	if len(names) != 7 {
		t.Errorf("QueryNames = %v", names)
	}
	for _, n := range names {
		q, ok := Query(n)
		if !ok || q == "" {
			t.Errorf("Query(%s) missing", n)
		}
	}
	if _, ok := Query("Q99"); ok {
		t.Error("Query(Q99) should not exist")
	}
	paper := PaperQueries()
	if len(paper) != 4 || paper[0] != "Q5" || paper[3] != "Q9" {
		t.Errorf("PaperQueries = %v", paper)
	}
}

func TestMoneyRoundedToCents(t *testing.T) {
	db, err := NewDB(0.0003, 7)
	if err != nil {
		t.Fatal(err)
	}
	supplier, _ := db.Table("supplier")
	for _, r := range supplier.Rows {
		bal := r[5].Float()
		cents := bal * 100
		rounded := float64(int64(cents + 0.5))
		if cents < 0 {
			rounded = float64(int64(cents - 0.5))
		}
		if diff := cents - rounded; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("s_acctbal %v not cent-rounded", bal)
		}
	}
}
