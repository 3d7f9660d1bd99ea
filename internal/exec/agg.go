package exec

import (
	"context"
	"slices"

	"repro/internal/algebra"
	"repro/internal/data"
	"repro/internal/memo"
)

// aggAcc accumulates one aggregate function.
type aggAcc struct {
	fn    algebra.AggFunc
	kind  data.Kind
	seen  bool
	count int64
	sumI  int64
	sumF  float64
	minV  data.Value
	maxV  data.Value
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

// aggIter implements hash, stream and scalar aggregation. The stream
// variant relies on its input being sorted on the grouping keys (the
// operator's required ordering) and emits a group whenever the key
// changes; the hash variant accumulates all groups in a table. Both
// tell groups apart by their groupWords, so their results are
// identical — the verification harness depends on that.
//
// Groups live in one flat store: group g's key values are gkeys[g*k:]
// and its accumulators accs[g*n:], for k keys and n aggregates. Hash
// aggregation finds group g as entry g of its hashTable; the stream
// variant holds one group at a time, whose words are cur; the scalar
// aggregate (no GROUP BY) is one keyless group.
type aggIter struct {
	opNode
	child  Iterator
	stream bool
	scalar bool
	keyFns []evalFunc
	argFns []evalFunc // nil entry = COUNT(*)
	aggs   []*algebra.AggExpr
	keys   []data.Value  // the current input row's group key
	key    []uint64      // its words
	cur    []uint64      // the stream variant's current group's words
	strs   *data.Strings // orders MIN/MAX strings by text
	out    data.Row      // reused output row

	table   hashTable
	gkeys   []data.Value
	accs    []aggAcc
	groups  int
	emitPos int
	done    bool // the input is consumed
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
	w := groupWidth(len(keyFns))
	words := make([]uint64, 2*w)
	return &aggIter{
		child:  child,
		stream: e.Op == memo.StreamAgg && len(q.GroupBy) > 0,
		scalar: len(q.GroupBy) == 0,
		keyFns: keyFns,
		argFns: argFns,
		aggs:   q.Aggs,
		keys:   make([]data.Value, len(keyFns)),
		key:    words[:w:w],
		cur:    words[w:],
		strs:   b.strs,
		out:    make(data.Row, len(out)),
	}, out, nil
}

func (a *aggIter) Open(ctx context.Context) error {
	a.gkeys, a.accs = a.gkeys[:0], a.accs[:0]
	a.groups, a.emitPos, a.done = 0, 0, false
	if !a.stream && !a.scalar {
		a.table = hashTable{k: len(a.key)}
		a.table.index()
	}
	if err := a.enter(); err != nil {
		return err
	}
	return a.child.Open(ctx)
}

// groupKey evaluates row's group key into keys and its words into key.
func (a *aggIter) groupKey(row data.Row) error {
	for i, f := range a.keyFns {
		v, err := f(row)
		if err != nil {
			return err
		}
		a.keys[i] = v
	}
	groupWords(a.key, a.keys)
	return nil
}

// newGroup adds a group holding the current key, with fresh
// accumulators.
func (a *aggIter) newGroup() {
	a.gkeys = append(a.gkeys, a.keys...)
	for _, agg := range a.aggs {
		a.accs = append(a.accs, aggAcc{fn: agg.Fn, kind: agg.Out.Kind})
	}
	a.groups++
}

// groupOf returns the hash group of the current key, adding it when
// new.
func (a *aggIter) groupOf() int {
	if g := a.table.find(a.key); g >= 0 {
		return int(g)
	}
	a.newGroup()
	return int(a.table.add(a.key))
}

func (a *aggIter) accumulate(g int, row data.Row) error {
	n := len(a.aggs)
	accs := a.accs[g*n : g*n+n]
	for i := range accs {
		if a.argFns[i] == nil {
			accs[i].count++ // COUNT(*)
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

// emitRow writes group g's output row into out, returns it and charges
// it.
func (a *aggIter) emitRow(g int) (data.Row, error) {
	if err := a.emit(); err != nil {
		return nil, err
	}
	k, n := len(a.keys), len(a.aggs)
	copy(a.out, a.gkeys[g*k:g*k+k])
	for i := range n {
		a.out[k+i] = a.accs[g*n+i].final()
	}
	return a.out, nil
}

func (a *aggIter) Next() (data.Row, bool, error) {
	if a.stream {
		return a.nextStream()
	}
	if !a.done {
		if a.scalar {
			a.newGroup() // exactly one output row, even over no input
		}
		for {
			row, ok, err := a.child.Next()
			if err != nil {
				return nil, false, err
			}
			if !ok {
				break
			}
			g := 0
			if !a.scalar {
				if err := a.groupKey(row); err != nil {
					return nil, false, err
				}
				g = a.groupOf()
			}
			if err := a.accumulate(g, row); err != nil {
				return nil, false, err
			}
		}
		a.done = true
	}
	if a.emitPos >= a.groups {
		return nil, false, nil
	}
	row, err := a.emitRow(a.emitPos)
	a.emitPos++
	return row, err == nil, err
}

func (a *aggIter) nextStream() (data.Row, bool, error) {
	for !a.done {
		row, ok, err := a.child.Next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			a.done = true
			break
		}
		if err := a.groupKey(row); err != nil {
			return nil, false, err
		}
		var out data.Row
		if a.groups > 0 && !slices.Equal(a.cur, a.key) {
			// The key changed: emit the finished group, start the next.
			if out, err = a.emitRow(0); err != nil {
				return nil, false, err
			}
			a.gkeys, a.accs, a.groups = a.gkeys[:0], a.accs[:0], 0
		}
		if a.groups == 0 {
			a.newGroup()
			a.cur, a.key = a.key, a.cur
		}
		if err := a.accumulate(0, row); err != nil {
			return nil, false, err
		}
		if out != nil {
			return out, true, nil
		}
	}
	if a.groups == 0 {
		return nil, false, nil
	}
	a.groups = 0
	row, err := a.emitRow(0)
	return row, err == nil, err
}

func (a *aggIter) Close() error {
	err := a.child.Close()
	a.leave()
	return err
}
