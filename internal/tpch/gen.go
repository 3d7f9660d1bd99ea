package tpch

import (
	"fmt"
	"math"

	"repro/internal/data"
	"repro/internal/storage"
)

// splitmix64 is the generator's PRNG: tiny, fast, and identical on every
// platform, so a (scale factor, seed) pair pins the database exactly —
// experiments and USEPLAN regression scripts are reproducible.
type rng struct{ state uint64 }

func newRNG(seed uint64) *rng { return &rng{state: seed} }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a uniform int in [0, n).
func (r *rng) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.next() % uint64(n))
}

// between returns a uniform int in [lo, hi] inclusive.
func (r *rng) between(lo, hi int) int { return lo + r.intn(hi-lo+1) }

// money returns a uniform amount in [lo, hi] rounded to cents.
func (r *rng) money(lo, hi float64) float64 {
	f := lo + (hi-lo)*float64(r.next()%1_000_000)/1_000_000
	return math.Round(f*100) / 100
}

func (r *rng) pick(list []string) string { return list[r.intn(len(list))] }

// TPC-H value domains (the subsets the queries' constants require).
var (
	regionNames = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}

	// nationTable maps each of the 25 TPC-H nations to its region key.
	nationTable = []struct {
		name   string
		region int64
	}{
		{"ALGERIA", 0}, {"ARGENTINA", 1}, {"BRAZIL", 1}, {"CANADA", 1},
		{"EGYPT", 4}, {"ETHIOPIA", 0}, {"FRANCE", 3}, {"GERMANY", 3},
		{"INDIA", 2}, {"INDONESIA", 2}, {"IRAN", 4}, {"IRAQ", 4},
		{"JAPAN", 2}, {"JORDAN", 4}, {"KENYA", 0}, {"MOROCCO", 0},
		{"MOZAMBIQUE", 0}, {"PERU", 1}, {"CHINA", 2}, {"ROMANIA", 3},
		{"SAUDI ARABIA", 4}, {"VIETNAM", 2}, {"RUSSIA", 3},
		{"UNITED KINGDOM", 3}, {"UNITED STATES", 1},
	}

	mktSegments = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
	priorities  = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
	shipModes   = []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}
	instructs   = []string{"DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"}
	containers1 = []string{"SM", "LG", "MED", "JUMBO", "WRAP"}
	containers2 = []string{"CASE", "BOX", "BAG", "JAR", "PKG", "PACK", "CAN", "DRUM"}
	types1      = []string{"STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"}
	types2      = []string{"ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"}
	types3      = []string{"TIN", "NICKEL", "BRASS", "STEEL", "COPPER"}

	// colors feed p_name; Q9 selects parts whose name contains "green".
	colors = []string{
		"almond", "antique", "aquamarine", "azure", "beige", "bisque",
		"black", "blanched", "blue", "blush", "brown", "burlywood",
		"chartreuse", "chocolate", "coral", "cornflower", "cream",
		"cyan", "dark", "dim", "dodger", "drab", "firebrick", "forest",
		"frosted", "gainsboro", "ghost", "goldenrod", "green", "grey",
		"honeydew", "hot", "indian", "ivory", "khaki", "lace", "lavender",
		"lawn", "lemon", "light", "lime", "linen", "magenta", "maroon",
		"medium", "metallic", "midnight", "mint", "misty", "moccasin",
		"navajo", "navy", "olive", "orange", "orchid", "pale", "papaya",
		"peach", "peru", "pink", "plum", "powder", "puff", "purple", "red",
		"rose", "rosy", "royal", "saddle", "salmon", "sandy", "seashell",
		"sienna", "sky", "slate", "smoke", "snow", "spring", "steel",
		"tan", "thistle", "tomato", "turquoise", "violet", "wheat",
		"white", "yellow",
	}
)

// date range of o_orderdate per the TPC-H specification.
var (
	orderDateLo = data.MustParseDate("1992-01-01")
	orderDateHi = data.MustParseDate("1998-08-02")
)

// Rows computes the scaled row counts for a scale factor. Fixed-size
// tables keep their spec sizes; everything else scales linearly with
// sensible floors so micro scale factors still join meaningfully.
type Rows struct {
	Supplier, Part, Customer, Orders int
}

// RowsFor returns the row counts at scale factor sf.
func RowsFor(sf float64) Rows {
	scale := func(base int, min int) int {
		n := int(math.Round(float64(base) * sf))
		if n < min {
			n = min
		}
		return n
	}
	return Rows{
		Supplier: scale(10_000, 5),
		Part:     scale(200_000, 20),
		Customer: scale(150_000, 20),
		Orders:   scale(1_500_000, 50),
	}
}

// Populate fills db with a deterministic TPC-H instance at scale factor
// sf and recomputes catalog statistics from the generated data.
func Populate(db *storage.DB, sf float64, seed int64) error {
	rows := RowsFor(sf)
	if err := genRegionNation(db, seed); err != nil {
		return err
	}
	if err := genSupplier(db, rows, seed); err != nil {
		return err
	}
	if err := genPartAndPartsupp(db, rows, seed); err != nil {
		return err
	}
	if err := genCustomer(db, rows, seed); err != nil {
		return err
	}
	if err := genOrdersAndLineitem(db, rows, seed); err != nil {
		return err
	}
	return db.ComputeStats()
}

// NewDB builds catalog, storage, data, and statistics in one call.
func NewDB(sf float64, seed int64) (*storage.DB, error) {
	db := storage.NewDB(Schema())
	for _, name := range []string{"region", "nation", "supplier", "part", "partsupp", "customer", "orders", "lineitem"} {
		if _, err := db.CreateTable(name); err != nil {
			return nil, err
		}
	}
	if err := Populate(db, sf, seed); err != nil {
		return nil, err
	}
	return db, nil
}

func genRegionNation(db *storage.DB, seed int64) error {
	region, err := db.Table("region")
	if err != nil {
		return err
	}
	r := newRNG(uint64(seed) ^ 0x01)
	for i, name := range regionNames {
		err := region.Insert(
			int64(i),
			name,
			comment(r, "region"),
		)
		if err != nil {
			return err
		}
	}
	nation, err := db.Table("nation")
	if err != nil {
		return err
	}
	for i, n := range nationTable {
		err := nation.Insert(
			int64(i),
			n.name,
			n.region,
			comment(r, "nation"),
		)
		if err != nil {
			return err
		}
	}
	return nil
}

func genSupplier(db *storage.DB, rows Rows, seed int64) error {
	t, err := db.Table("supplier")
	if err != nil {
		return err
	}
	r := newRNG(uint64(seed) ^ 0x02)
	for k := 1; k <= rows.Supplier; k++ {
		err := t.Insert(
			int64(k),
			fmt.Sprintf("Supplier#%09d", k),
			address(r),
			int64(r.intn(len(nationTable))),
			phone(r),
			r.money(-999.99, 9999.99),
			comment(r, "supplier"),
		)
		if err != nil {
			return err
		}
	}
	return nil
}

func genPartAndPartsupp(db *storage.DB, rows Rows, seed int64) error {
	part, err := db.Table("part")
	if err != nil {
		return err
	}
	ps, err := db.Table("partsupp")
	if err != nil {
		return err
	}
	r := newRNG(uint64(seed) ^ 0x03)
	s := rows.Supplier
	for k := 1; k <= rows.Part; k++ {
		name := r.pick(colors) + " " + r.pick(colors) + " " + r.pick(colors) + " " +
			r.pick(colors) + " " + r.pick(colors)
		mfgr := fmt.Sprintf("Manufacturer#%d", r.between(1, 5))
		brand := fmt.Sprintf("Brand#%d%d", r.between(1, 5), r.between(1, 5))
		ptype := r.pick(types1) + " " + r.pick(types2) + " " + r.pick(types3)
		container := r.pick(containers1) + " " + r.pick(containers2)
		err := part.Insert(
			int64(k),
			name,
			mfgr,
			brand,
			ptype,
			int64(r.between(1, 50)),
			container,
			math.Round((90000+float64(k%200001)/10+100*float64(k%1000))/10)/100,
			comment(r, "part"),
		)
		if err != nil {
			return err
		}
		// Four suppliers per part, assigned by the dbgen formula so every
		// supplier carries parts even at micro scales.
		for i := 0; i < 4; i++ {
			supp := (k+i*(s/4+(k-1)/s))%s + 1
			err := ps.Insert(
				int64(k),
				int64(supp),
				int64(r.between(1, 9999)),
				r.money(1.00, 1000.00),
				comment(r, "partsupp"),
			)
			if err != nil {
				return err
			}
		}
	}
	return nil
}

func genCustomer(db *storage.DB, rows Rows, seed int64) error {
	t, err := db.Table("customer")
	if err != nil {
		return err
	}
	r := newRNG(uint64(seed) ^ 0x04)
	for k := 1; k <= rows.Customer; k++ {
		err := t.Insert(
			int64(k),
			fmt.Sprintf("Customer#%09d", k),
			address(r),
			int64(r.intn(len(nationTable))),
			phone(r),
			r.money(-999.99, 9999.99),
			r.pick(mktSegments),
			comment(r, "customer"),
		)
		if err != nil {
			return err
		}
	}
	return nil
}

func genOrdersAndLineitem(db *storage.DB, rows Rows, seed int64) error {
	orders, err := db.Table("orders")
	if err != nil {
		return err
	}
	li, err := db.Table("lineitem")
	if err != nil {
		return err
	}
	part, err := db.Table("part")
	if err != nil {
		return err
	}
	r := newRNG(uint64(seed) ^ 0x05)
	nParts := len(part.Rows)
	supplier, err := db.Table("supplier")
	if err != nil {
		return err
	}
	nSupp := len(supplier.Rows)
	dateSpan := int(orderDateHi - orderDateLo)

	for k := 1; k <= rows.Orders; k++ {
		cust := r.between(1, rows.Customer)
		odate := orderDateLo + int64(r.intn(dateSpan+1))
		nLines := r.between(1, 7)
		total := 0.0
		status := "O"
		if r.intn(2) == 0 {
			status = "F"
		}
		lines := make([][]any, 0, nLines)
		for ln := 1; ln <= nLines; ln++ {
			partKey := r.between(1, nParts)
			// A supplier that actually stocks the part (dbgen formula).
			supp := (partKey+r.intn(4)*(nSupp/4+(partKey-1)/nSupp))%nSupp + 1
			qty := float64(r.between(1, 50))
			price := math.Round(qty*r.money(900, 11000)) / 100 * 100 / 100
			price = math.Round(price*100) / 100
			discount := float64(r.between(0, 10)) / 100
			tax := float64(r.between(0, 8)) / 100
			ship := odate + int64(r.between(1, 121))
			commit := odate + int64(r.between(30, 90))
			receipt := ship + int64(r.between(1, 30))
			flag := "N"
			if r.intn(3) == 0 {
				flag = "R"
			} else if r.intn(2) == 0 {
				flag = "A"
			}
			lstatus := "O"
			if ship <= data.MustParseDate("1995-06-17") {
				lstatus = "F"
			}
			total += price * (1 + tax) * (1 - discount)
			lines = append(lines, []any{
				int64(k),
				int64(partKey),
				int64(supp),
				int64(ln),
				qty,
				price,
				discount,
				tax,
				flag,
				lstatus,
				data.NewDate(ship),
				data.NewDate(commit),
				data.NewDate(receipt),
				r.pick(instructs),
				r.pick(shipModes),
				comment(r, "lineitem"),
			})
		}
		err := orders.Insert(
			int64(k),
			int64(cust),
			status,
			math.Round(total*100)/100,
			data.NewDate(odate),
			r.pick(priorities),
			fmt.Sprintf("Clerk#%09d", r.between(1, 1000)),
			0,
			comment(r, "orders"),
		)
		if err != nil {
			return err
		}
		for _, line := range lines {
			if err := li.Insert(line...); err != nil {
				return err
			}
		}
	}
	return nil
}

var commentWords = []string{
	"carefully", "final", "deposits", "sleep", "quickly", "furiously",
	"regular", "requests", "ironic", "packages", "bold", "accounts",
	"express", "pending", "theodolites", "silent", "foxes", "blithely",
}

func comment(r *rng, prefix string) string {
	n := r.between(2, 5)
	out := prefix
	for i := 0; i < n; i++ {
		out += " " + r.pick(commentWords)
	}
	return out
}

func address(r *rng) string {
	n := r.between(8, 20)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + r.intn(26))
	}
	return string(b)
}

func phone(r *rng) string {
	return fmt.Sprintf("%d-%03d-%03d-%04d", r.between(10, 34), r.intn(1000), r.intn(1000), r.intn(10000))
}
