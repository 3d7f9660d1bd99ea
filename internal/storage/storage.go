// Package storage is the in-memory row store the execution engine runs
// against. It is deliberately simple — rows are slices of 16-byte,
// pointer-free values, and every stored string is interned in one
// append-only table per DB, so a string cell is a code — because the
// paper's experiments exercise the optimizer's search space, not storage
// performance; what matters is that every sampled plan can be executed
// and its result compared with every other plan's.
package storage

import (
	"fmt"
	"slices"
	"strconv"
	"sync"

	"repro/internal/catalog"
	"repro/internal/data"
)

// Table is stored rows plus lazily computed index orderings. Insert
// only appends, and nothing else writes stored rows: a row id names the
// same row for the table's lifetime, and the row count tells whether
// anything changed since a derived structure was computed. Cached index
// orderings and the executor's selection bitmaps rely on that.
type Table struct {
	Def  *catalog.Table
	Rows []data.Row

	strs *data.Strings // the DB's interner

	mu     sync.Mutex
	orders map[string][]int32 // index name -> row permutation sorted by key
}

// DB maps table names to stored tables.
type DB struct {
	cat    *catalog.Catalog
	tables map[string]*Table
	strs   *data.Strings
}

// NewDB returns an empty database over the given catalog.
func NewDB(cat *catalog.Catalog) *DB {
	return &DB{cat: cat, tables: make(map[string]*Table), strs: data.NewStrings()}
}

// Catalog returns the catalog the database was created with.
func (db *DB) Catalog() *catalog.Catalog { return db.cat }

// Strings returns the table of every string stored in the database.
// Only Table.Insert grows it; queries resolve constants against it and
// intern any constant they must materialize in an overlay of their own.
func (db *DB) Strings() *data.Strings { return db.strs }

// CreateTable allocates storage for a catalog table.
func (db *DB) CreateTable(name string) (*Table, error) {
	def, ok := db.cat.Table(name)
	if !ok {
		return nil, fmt.Errorf("storage: table %q not in catalog", name)
	}
	if _, dup := db.tables[name]; dup {
		return nil, fmt.Errorf("storage: table %q already created", name)
	}
	t := &Table{Def: def, strs: db.strs, orders: make(map[string][]int32)}
	db.tables[name] = t
	return t, nil
}

// Table returns the stored table, or an error if it was never created.
func (db *DB) Table(name string) (*Table, error) {
	t, ok := db.tables[name]
	if !ok {
		return nil, fmt.Errorf("storage: table %q has no storage", name)
	}
	return t, nil
}

// Insert appends a row after checking arity and kinds, so generator bugs
// fail fast instead of corrupting experiments. Each cell is a Go string
// (interned into the DB's table of strings), an int, int64 or float64, a
// data.Value of any kind but string, or nil for NULL.
func (t *Table) Insert(cells ...any) error {
	if len(cells) != len(t.Def.Columns) {
		return fmt.Errorf("storage: %s: row has %d values, table has %d columns", t.Def.Name, len(cells), len(t.Def.Columns))
	}
	row := make(data.Row, len(cells))
	for i, c := range cells {
		var v data.Value
		switch c := c.(type) {
		case nil:
		case string:
			v = t.strs.Intern(c)
		case int:
			v = data.NewInt(int64(c))
		case int64:
			v = data.NewInt(c)
		case float64:
			v = data.NewFloat(c)
		case data.Value:
			if c.K == data.KindString {
				return fmt.Errorf("storage: %s.%s: pass string cells as Go strings", t.Def.Name, t.Def.Columns[i].Name)
			}
			v = c
		default:
			return fmt.Errorf("storage: %s.%s: cannot store a %T", t.Def.Name, t.Def.Columns[i].Name, c)
		}
		if v.K != data.KindNull && v.K != t.Def.Columns[i].Kind {
			return fmt.Errorf("storage: %s.%s: inserted %s into %s column", t.Def.Name, t.Def.Columns[i].Name, v.K, t.Def.Columns[i].Kind)
		}
		row[i] = v
	}
	t.Rows = append(t.Rows, row)
	t.mu.Lock()
	clear(t.orders) // invalidate cached orderings
	t.mu.Unlock()
	return nil
}

// IndexOrder returns the row permutation that visits rows in the key
// order of the named index. The permutation is computed on first use and
// cached; plans executed afterwards share it.
func (t *Table) IndexOrder(idx *catalog.Index) ([]int32, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if perm, ok := t.orders[idx.Name]; ok {
		return perm, nil
	}
	perm := make([]int32, len(t.Rows))
	for i := range perm {
		perm[i] = int32(i)
	}
	var sortErr error
	slices.SortStableFunc(perm, func(a, b int32) int {
		ra, rb := t.Rows[a], t.Rows[b]
		for _, kc := range idx.KeyCols {
			c, err := data.Compare(t.strs, ra[kc], rb[kc])
			if err != nil && sortErr == nil {
				sortErr = err
			}
			if c != 0 {
				return c
			}
		}
		return 0
	})
	if sortErr != nil {
		return nil, fmt.Errorf("storage: ordering %s by %s: %w", t.Def.Name, idx.Name, sortErr)
	}
	t.orders[idx.Name] = perm
	return perm, nil
}

// ComputeStats scans all stored tables and fills in the catalog statistics
// (row counts, NDVs, min/max) that the cost model estimates from. The
// paper's point that "current table statistics" steer the optimizer is
// reproduced by deriving statistics directly from the generated data.
func (db *DB) ComputeStats() error {
	for _, name := range db.cat.Names() {
		t, ok := db.tables[name]
		if !ok {
			continue
		}
		def := t.Def
		def.RowCount = int64(len(t.Rows))
		for ci := range def.Columns {
			stats, err := columnStats(t, ci)
			if err != nil {
				return fmt.Errorf("storage: stats for %s.%s: %w", name, def.Columns[ci].Name, err)
			}
			def.Columns[ci].Stats = stats
		}
	}
	// Fresh statistics change what the optimizer would choose, so any
	// cost overlay derived from the old stats is stale — the counted
	// structure itself (which depends only on schema and rules) survives.
	db.cat.BumpStats()
	return nil
}

// histBuckets is the equi-depth histogram resolution collected per
// column; 16 buckets resolve range selectivities to ~6%.
const histBuckets = 16

func columnStats(t *Table, ci int) (catalog.ColumnStats, error) {
	var st catalog.ColumnStats
	// Distinct values are counted as they render: a string by its code,
	// which is its text, and a float by its 12-digit rendering.
	distinct := make(map[data.Value]struct{})
	floats := make(map[string]struct{})
	var buf []byte
	var nonNull []data.Value
	first := true
	for _, row := range t.Rows {
		v := row[ci]
		if v.IsNull() {
			st.NullCount++
			continue
		}
		if v.K == data.KindFloat {
			buf = strconv.AppendFloat(buf[:0], v.Float(), 'g', 12, 64)
			if _, ok := floats[string(buf)]; !ok {
				floats[string(buf)] = struct{}{}
			}
		} else {
			distinct[v] = struct{}{}
		}
		nonNull = append(nonNull, v)
		if first {
			st.Min, st.Max = v, v
			first = false
			continue
		}
		if c, err := data.Compare(t.strs, v, st.Min); err != nil {
			return st, err
		} else if c < 0 {
			st.Min = v
		}
		if c, err := data.Compare(t.strs, v, st.Max); err != nil {
			return st, err
		} else if c > 0 {
			st.Max = v
		}
	}
	st.NDV = int64(len(distinct) + len(floats))
	if st.NDV == 0 {
		st.NDV = 1
	}
	if t.Def.Columns[ci].Kind == data.KindString {
		st.Strings = t.strs
	}
	if bounds, err := equiDepthBounds(t.strs, nonNull, histBuckets); err != nil {
		return st, err
	} else {
		st.HistBounds = bounds
	}
	return st, nil
}

// equiDepthBounds returns the upper bounds of an equi-depth histogram:
// bounds[i] is the value at quantile (i+1)/buckets of the sorted values.
// It sorts vals in place, and not stably: values that compare equal are
// interchangeable as bounds. The one exception is a float column
// holding NaN, which data.Compare finds equal to every value, or both
// -0 and 0: the bound picked among values that compare equal may then
// differ from a stable sort's.
func equiDepthBounds(strs *data.Strings, vals []data.Value, buckets int) ([]data.Value, error) {
	if len(vals) < 2*buckets {
		return nil, nil // too few rows for the histogram to add signal
	}
	sorted := vals
	var sortErr error
	slices.SortFunc(sorted, func(a, b data.Value) int {
		c, err := data.Compare(strs, a, b)
		if err != nil && sortErr == nil {
			sortErr = err
		}
		return c
	})
	if sortErr != nil {
		return nil, sortErr
	}
	bounds := make([]data.Value, buckets)
	for i := 0; i < buckets; i++ {
		pos := (i+1)*len(sorted)/buckets - 1
		bounds[i] = sorted[pos]
	}
	return bounds, nil
}
