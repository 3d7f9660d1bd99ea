package exec

import (
	"context"

	"repro/internal/algebra"
	"repro/internal/data"
	"repro/internal/memo"
)

// aggAcc accumulates one aggregate function.
type aggAcc struct {
	fn    algebra.AggFunc
	kind  data.Kind
	count int64
	sumI  int64
	sumF  float64
	minV  data.Value
	maxV  data.Value
	seen  bool
}

func (a *aggAcc) add(strs *data.Strings, v data.Value) error {
	if v.IsNull() {
		return nil // SQL aggregates ignore NULLs
	}
	a.count++
	switch a.fn {
	case algebra.AggSum, algebra.AggAvg:
		if v.K == data.KindInt {
			a.sumI += v.Int()
			a.sumF += float64(v.Int())
		} else {
			a.sumF += v.Float()
		}
	case algebra.AggMin, algebra.AggMax:
		if !a.seen {
			a.minV, a.maxV = v, v
			a.seen = true
			return nil
		}
		c, err := data.Compare(strs, v, a.minV)
		if err != nil {
			return err
		}
		if c < 0 {
			a.minV = v
		}
		c, err = data.Compare(strs, v, a.maxV)
		if err != nil {
			return err
		}
		if c > 0 {
			a.maxV = v
		}
	}
	return nil
}

func (a *aggAcc) addCountStar() { a.count++ }

func (a *aggAcc) final() data.Value {
	switch a.fn {
	case algebra.AggCount:
		return data.NewInt(a.count)
	case algebra.AggSum:
		if a.count == 0 {
			return data.Null()
		}
		if a.kind == data.KindInt {
			return data.NewInt(a.sumI)
		}
		return data.NewFloat(a.sumF)
	case algebra.AggAvg:
		if a.count == 0 {
			return data.Null()
		}
		return data.NewFloat(a.sumF / float64(a.count))
	case algebra.AggMin:
		if !a.seen {
			return data.Null()
		}
		return a.minV
	case algebra.AggMax:
		if !a.seen {
			return data.Null()
		}
		return a.maxV
	}
	return data.Null()
}

// aggIter implements both hash and stream aggregation. The stream variant
// relies on its input being sorted on the grouping keys (the operator's
// required ordering) and emits a group whenever the key changes; the hash
// variant accumulates all groups in a table. Results are identical — the
// verification harness depends on that.
type aggIter struct {
	opNode
	child   Iterator
	stream  bool
	keyFns  []evalFunc
	argFns  []evalFunc // nil entry = COUNT(*)
	aggs    []*algebra.AggExpr
	outCols int
	keys    []data.Value  // the current input row's group key
	strs    *data.Strings // orders MIN/MAX strings by text

	// hash state: a single key of declared kind wordKind groups by
	// wordKey (NULL in nullGroup); other keys, and values of another
	// kind, group by their encoding
	wordKind  data.Kind // KindNull: no 8-byte path
	words     map[uint64]int
	nullGroup int
	enc       keyEncoder
	groups    map[string]int
	order     []data.Row // group key values per group, insertion order
	accs      [][]aggAcc
	emitPos   int
	prepared  bool

	// rows holds group keys and output rows; accSlab the accumulators
	rows    rowStore
	accSlab []aggAcc

	// stream state
	curKey  []data.Value
	curAccs []aggAcc
	haveCur bool
	done    bool

	// scalar aggregate (no GROUP BY): exactly one output row
	scalar      bool
	scalarDone  bool
	scalarEmpty bool
}

func (b *builder) buildAgg(e *memo.Expr, child Iterator, cs schema) (Iterator, schema, error) {
	q := b.q
	out := make(schema, 0, len(q.GroupBy)+len(q.Aggs))
	keyFns := make([]evalFunc, 0, len(q.GroupBy))
	for i := range q.GroupBy {
		f, err := compile(b.strs, q.GroupBy[i].Expr, cs)
		if err != nil {
			return nil, nil, err
		}
		keyFns = append(keyFns, f)
		out = append(out, q.GroupBy[i].Out.ID)
	}
	argFns := make([]evalFunc, 0, len(q.Aggs))
	for _, a := range q.Aggs {
		if a.Arg == nil {
			argFns = append(argFns, nil)
		} else {
			f, err := compile(b.strs, a.Arg, cs)
			if err != nil {
				return nil, nil, err
			}
			argFns = append(argFns, f)
		}
		out = append(out, a.Out.ID)
	}
	it := &aggIter{
		child:   child,
		stream:  e.Op == memo.StreamAgg,
		keyFns:  keyFns,
		argFns:  argFns,
		aggs:    q.Aggs,
		outCols: len(out),
		keys:    make([]data.Value, len(keyFns)),
		strs:    b.strs,
		scalar:  len(q.GroupBy) == 0,
	}
	if len(q.GroupBy) == 1 {
		it.wordKind = q.GroupBy[0].Expr.Kind()
	}
	return it, out, nil
}

// newAccs returns one group's accumulators, carved from a slab.
func (a *aggIter) newAccs() []aggAcc {
	n := len(a.aggs)
	if len(a.accSlab) < n {
		a.accSlab = make([]aggAcc, 16*n)
	}
	accs := a.accSlab[:n:n]
	a.accSlab = a.accSlab[n:]
	for i, agg := range a.aggs {
		accs[i] = aggAcc{fn: agg.Fn, kind: agg.Out.Kind}
	}
	return accs
}

func (a *aggIter) accumulate(accs []aggAcc, row data.Row) error {
	for i := range accs {
		if a.argFns[i] == nil {
			accs[i].addCountStar()
			continue
		}
		v, err := a.argFns[i](row)
		if err != nil {
			return err
		}
		if err := accs[i].add(a.strs, v); err != nil {
			return err
		}
	}
	return nil
}

func (a *aggIter) emitRow(keys []data.Value, accs []aggAcc) data.Row {
	row := a.rows.alloc(a.outCols)
	copy(row, keys)
	for i := range accs {
		row[len(keys)+i] = accs[i].final()
	}
	return row
}

// keepKeys returns a copy of keys that outlives the next input row.
func (a *aggIter) keepKeys(keys []data.Value) data.Row {
	k := a.rows.alloc(len(keys))
	copy(k, keys)
	return k
}

func (a *aggIter) Open(ctx context.Context) error {
	a.words, a.groups, a.order, a.accs = nil, nil, nil, nil
	a.nullGroup = -1
	a.emitPos, a.prepared = 0, false
	a.curKey, a.curAccs, a.haveCur, a.done = nil, nil, false, false
	a.scalarDone, a.scalarEmpty = false, false
	if err := a.enter(); err != nil {
		return err
	}
	return a.child.Open(ctx)
}

func (a *aggIter) Next() (data.Row, bool, error) {
	if a.scalar {
		return a.nextScalar()
	}
	if a.stream {
		return a.nextStream()
	}
	return a.nextHash()
}

func (a *aggIter) nextScalar() (data.Row, bool, error) {
	if a.scalarDone {
		return nil, false, nil
	}
	accs := a.newAccs()
	for {
		row, ok, err := a.child.Next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			break
		}
		if err := a.accumulate(accs, row); err != nil {
			return nil, false, err
		}
	}
	a.scalarDone = true
	if err := a.emit(); err != nil {
		return nil, false, err
	}
	return a.emitRow(nil, accs), true, nil
}

func (a *aggIter) nextHash() (data.Row, bool, error) {
	if !a.prepared {
		if a.wordKind != data.KindNull {
			a.words = make(map[uint64]int)
		}
		keys := a.keys
		for {
			row, ok, err := a.child.Next()
			if err != nil {
				return nil, false, err
			}
			if !ok {
				break
			}
			for i, f := range a.keyFns {
				v, err := f(row)
				if err != nil {
					return nil, false, err
				}
				keys[i] = v
			}
			if err := a.accumulate(a.accs[a.groupOf(keys)], row); err != nil {
				return nil, false, err
			}
		}
		a.prepared = true
		a.emitPos = 0
	}
	if a.emitPos >= len(a.order) {
		return nil, false, nil
	}
	row := a.emitRow(a.order[a.emitPos], a.accs[a.emitPos])
	a.emitPos++
	if err := a.emit(); err != nil {
		return nil, false, err
	}
	return row, true, nil
}

// groupOf returns the hash group of keys, adding it when new.
func (a *aggIter) groupOf(keys []data.Value) int {
	if v := keys[0]; a.wordKind != data.KindNull && (v.K == a.wordKind || v.IsNull()) {
		if v.IsNull() {
			if a.nullGroup < 0 {
				a.nullGroup = a.newGroup(keys)
			}
			return a.nullGroup
		}
		k := wordKey(v)
		gi, ok := a.words[k]
		if !ok {
			gi = a.newGroup(keys)
			a.words[k] = gi
		}
		return gi
	}
	if a.groups == nil {
		a.groups = make(map[string]int)
	}
	k := a.enc.encode(keys)
	gi, ok := a.groups[string(k)]
	if !ok {
		gi = a.newGroup(keys)
		a.groups[string(k)] = gi
	}
	return gi
}

func (a *aggIter) newGroup(keys []data.Value) int {
	a.order = append(a.order, a.keepKeys(keys))
	a.accs = append(a.accs, a.newAccs())
	return len(a.order) - 1
}

func (a *aggIter) nextStream() (data.Row, bool, error) {
	if a.done {
		return nil, false, nil
	}
	keys := a.keys
	for {
		row, ok, err := a.child.Next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			a.done = true
			if a.haveCur {
				if err := a.emit(); err != nil {
					return nil, false, err
				}
				return a.emitRow(a.curKey, a.curAccs), true, nil
			}
			return nil, false, nil
		}
		for i, f := range a.keyFns {
			v, err := f(row)
			if err != nil {
				return nil, false, err
			}
			keys[i] = v
		}
		if !a.haveCur {
			a.curKey = a.keepKeys(keys)
			a.curAccs = a.newAccs()
			a.haveCur = true
		} else if !sameKeys(a.curKey, keys) {
			out := a.emitRow(a.curKey, a.curAccs)
			a.curKey = a.keepKeys(keys)
			a.curAccs = a.newAccs()
			if err := a.accumulate(a.curAccs, row); err != nil {
				return nil, false, err
			}
			if err := a.emit(); err != nil {
				return nil, false, err
			}
			return out, true, nil
		}
		if err := a.accumulate(a.curAccs, row); err != nil {
			return nil, false, err
		}
	}
}

func sameKeys(a, b []data.Value) bool {
	for i := range a {
		an, bn := a[i].IsNull(), b[i].IsNull()
		if an || bn {
			if an != bn {
				return false
			}
			continue // grouping treats NULLs as equal
		}
		if !data.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

func (a *aggIter) Close() error {
	err := a.child.Close()
	a.leave()
	return err
}
