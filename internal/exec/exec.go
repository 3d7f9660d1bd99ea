package exec

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/algebra"
	"repro/internal/data"
	"repro/internal/plan"
	"repro/internal/storage"
)

// ExecStats records what one execution did: output and intermediate row
// counts, per-operator counters, wall-clock time, and whether a
// Governor limit cut the run short (and why).
type ExecStats struct {
	RowsProduced int64         `json:"rows_produced"`
	RowsExamined int64         `json:"rows_examined"`
	Truncated    bool          `json:"truncated"`
	Reason       string        `json:"reason,omitempty"` // one of the Reason* constants
	Elapsed      time.Duration `json:"-"`
	Operators    []OpStats     `json:"operators,omitempty"`
}

// Result is a fully materialized query result. When Stats.Truncated is
// set the rows are the valid prefix produced before a Governor limit
// tripped — useful for inspection, not for verification.
type Result struct {
	Columns []string
	Rows    []data.Row
	// Strings resolves the string codes in Rows: the DB's strings and
	// the constants the plan materialized.
	Strings *data.Strings
	Stats   ExecStats
}

// RunWithOptions executes a physical plan under ctx and the given
// resource limits. Limit terminations (deadline, row cap, work budget,
// cancellation) return the partial Result with Stats.Truncated set and
// a nil error; only genuine execution faults (bad plan, runtime errors
// like division by zero) return a non-nil error. The iterator tree is
// fully closed on every path — success, truncation, and failure alike.
func RunWithOptions(ctx context.Context, p *plan.Node, db *storage.DB, q *algebra.Query, opts Options) (*Result, error) {
	gov := NewGovernor(ctx, opts)
	b := newBuilder(db, q, gov)
	it, _, err := b.build(p)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	res := &Result{Columns: q.OutputNames(), Strings: b.strs}
	var store rowStore
	runErr := func() error {
		if err := it.Open(); err != nil {
			return err
		}
		for {
			row, ok, err := it.Next()
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
			// The cap is only a truncation if a row actually exists
			// beyond it — a result of exactly MaxRows rows is complete.
			if opts.MaxRows > 0 && int64(len(res.Rows)) >= opts.MaxRows {
				res.Stats.Truncated = true
				res.Stats.Reason = ReasonRowLimit
				return nil
			}
			out := store.alloc(len(row))
			copy(out, row)
			res.Rows = append(res.Rows, out)
		}
	}()
	closeErr := it.Close()
	res.Stats.RowsProduced = int64(len(res.Rows))
	res.Stats.RowsExamined = gov.RowsExamined()
	res.Stats.Operators = gov.Stats()
	res.Stats.Elapsed = time.Since(start)
	if runErr != nil {
		reason := truncationReason(runErr)
		if reason == "" {
			return nil, runErr
		}
		res.Stats.Truncated = true
		res.Stats.Reason = reason
	}
	// Truncated runs deliver their partial result even if teardown
	// complained — both truncation flavors treat Close alike; a Close
	// fault only surfaces for runs that completed normally.
	if !res.Stats.Truncated && closeErr != nil {
		return nil, closeErr
	}
	return res, nil
}

// Digest returns a canonical fingerprint of the result as an unordered
// multiset of rows. Two semantically equivalent plans must produce equal
// digests — this is the comparison the paper's verification methodology
// performs across plans of one query. Floating-point values are rounded
// to 6 significant digits so that aggregation order (which legitimately
// differs between plans) does not flip the digest.
func (r *Result) Digest() string {
	lines := make([]string, len(r.Rows))
	var buf []byte
	for i, row := range r.Rows {
		buf = appendRowKey(buf[:0], row, r.Strings)
		lines[i] = string(buf)
	}
	sort.Strings(lines)
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{0x1e})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// appendRowKey appends a row's digest line: its values separated by
// 0x1f, floats rounded to 6 significant digits with -0 written as 0
// (a group holding both keeps whichever its plan read first).
func appendRowKey(b []byte, row data.Row, strs *data.Strings) []byte {
	for j, v := range row {
		if j > 0 {
			b = append(b, 0x1f)
		}
		if v.K == data.KindFloat {
			f := v.Float()
			if f == 0 {
				f = 0 // -0 == 0
			}
			b = strconv.AppendFloat(b, f, 'g', 6, 64)
		} else {
			b = strs.Append(b, v)
		}
	}
	return b
}

// Equivalent reports whether two results hold the same multiset of rows,
// comparing floating-point values with relative tolerance relTol. This is
// the comparison the verification harness uses: plans that aggregate in
// different orders produce float sums differing in the last bits, which
// any fixed-precision digest can round to different strings when a value
// sits on a rounding boundary. A typical relTol is 1e-9.
func (r *Result) Equivalent(o *Result, relTol float64) bool {
	if len(r.Rows) != len(o.Rows) {
		return false
	}
	order := pairingOrder(r.Rows, o.Rows)
	a, b := sortedRows(r.Rows, order, r.Strings), sortedRows(o.Rows, order, o.Strings)
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			x, y := a[i][j], b[i][j]
			if x.K == data.KindString && y.K == data.KindString {
				// Each result codes strings in its own table.
				if r.Strings.Text(x) != o.Strings.Text(y) {
					return false
				}
				continue
			}
			if !valuesClose(x, y, relTol) {
				return false
			}
		}
	}
	return true
}

// pairingOrder lists the column positions Equivalent sorts rows by to
// pair them up: the columns holding no float in either result, then the
// float columns. The exact columns decide the pairing and the floats,
// at full precision, only break ties; floats rounded to fixed digits
// would pair rows with the wrong partner whenever two values within
// tolerance straddle a rounding boundary.
func pairingOrder(a, b []data.Row) []int {
	var isFloat []bool
	for _, row := range slices.Concat(a, b) {
		for j, v := range row {
			if j == len(isFloat) {
				isFloat = append(isFloat, false)
			}
			isFloat[j] = isFloat[j] || v.K == data.KindFloat
		}
	}
	var order []int
	for _, float := range []bool{false, true} {
		for j, f := range isFloat {
			if f == float {
				order = append(order, j)
			}
		}
	}
	return order
}

// sortedRows returns a copy of rows sorted by their values at the order
// positions, strings by their text in strs. A pair that fails to compare
// stays unordered; the value comparison after sorting reports the
// mismatch.
func sortedRows(rows []data.Row, order []int, strs *data.Strings) []data.Row {
	out := slices.Clone(rows)
	slices.SortFunc(out, func(x, y data.Row) int {
		for _, j := range order {
			if j >= len(x) || j >= len(y) {
				return len(x) - len(y)
			}
			if c, _ := data.Compare(strs, x[j], y[j]); c != 0 {
				return c
			}
		}
		return 0
	})
	return out
}

func valuesClose(a, b data.Value, relTol float64) bool {
	if a.K == data.KindFloat || b.K == data.KindFloat {
		if a.IsNull() || b.IsNull() {
			return a.IsNull() == b.IsNull()
		}
		x, y := a.Float(), b.Float()
		diff := x - y
		if diff < 0 {
			diff = -diff
		}
		scale := 1.0
		if ax := abs(x); ax > scale {
			scale = ax
		}
		if ay := abs(y); ay > scale {
			scale = ay
		}
		return diff <= relTol*scale
	}
	if a.IsNull() || b.IsNull() {
		return a.IsNull() == b.IsNull()
	}
	c, err := data.Compare(nil, a, b)
	return err == nil && c == 0
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// String renders the result as an aligned text table (for the CLI tools
// and examples).
func (r *Result) String() string {
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	rendered := make([][]string, len(r.Rows))
	for ri, row := range r.Rows {
		cells := make([]string, len(row))
		for ci, v := range row {
			cells[ci] = r.Strings.Format(v)
			if ci < len(widths) && len(cells[ci]) > widths[ci] {
				widths[ci] = len(cells[ci])
			}
		}
		rendered[ri] = cells
	}
	var sb strings.Builder
	for i, c := range r.Columns {
		if i > 0 {
			sb.WriteString("  ")
		}
		fmt.Fprintf(&sb, "%-*s", widths[i], c)
	}
	sb.WriteByte('\n')
	for i := range r.Columns {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", widths[i]))
	}
	sb.WriteByte('\n')
	for _, cells := range rendered {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			fmt.Fprintf(&sb, "%-*s", w, c)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// CheckOrdered verifies that the result's rows are ordered by the given
// key positions and directions (non-strictly: ties are legal). The
// verification harness applies it to every executed plan of an ORDER BY
// query — all plans must agree not just on content but on order.
func (r *Result) CheckOrdered(keyPos []int, desc []bool) error {
	for i := 1; i < len(r.Rows); i++ {
		prev, cur := r.Rows[i-1], r.Rows[i]
		for k, p := range keyPos {
			if p < 0 || p >= len(prev) || p >= len(cur) {
				return fmt.Errorf("exec: sort key position %d out of range", p)
			}
			c, err := data.Compare(r.Strings, prev[p], cur[p])
			if err != nil {
				return fmt.Errorf("exec: comparing sort keys in row %d: %w", i, err)
			}
			if desc[k] {
				c = -c
			}
			if c < 0 {
				break // strictly ordered on this key; later keys free
			}
			if c > 0 {
				return fmt.Errorf("exec: rows %d and %d violate the requested order on key %d", i-1, i, k)
			}
		}
	}
	return nil
}
