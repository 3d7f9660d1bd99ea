package exec_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/data"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/memo"
	"repro/internal/plan"
	"repro/internal/tpch"
)

// colSet is a set of column IDs.
type colSet map[algebra.ColID]bool

func (s colSet) addExpr(x algebra.Scalar) {
	algebra.ColumnsIn(x, func(c algebra.Column) { s[c.ID] = true })
}

// opReads returns the input columns operator e of query q reads.
func opReads(e *memo.Expr, q *algebra.Query) colSet {
	s := colSet{}
	switch e.Op {
	case memo.Result:
		for _, p := range q.Projections {
			s.addExpr(p.Expr)
		}
	case memo.HashAgg, memo.StreamAgg:
		for _, g := range q.GroupBy {
			s.addExpr(g.Expr)
		}
		for _, a := range q.Aggs {
			if a.Arg != nil {
				s.addExpr(a.Arg)
			}
		}
	case memo.HashJoin, memo.MergeJoin, memo.NestedLoopJoin, memo.IndexNLJoin:
		for _, p := range append(slices.Clone(e.Join.Equi), e.Join.Residual...) {
			s.addExpr(p.Expr)
		}
	}
	for _, oc := range e.SortOrder {
		s[oc.Col] = true
	}
	return s
}

// readsAbove maps every node of the plan rooted at n to the columns its
// ancestors read, given those the ancestors of n read.
func readsAbove(n *plan.Node, q *algebra.Query, above colSet, into map[*plan.Node]colSet) {
	into[n] = above
	below := colSet{}
	for c := range above {
		below[c] = true
	}
	for c := range opReads(n.Expr, q) {
		below[c] = true
	}
	for _, ch := range n.Children {
		readsAbove(ch, q, below, into)
	}
}

// within returns the members of ids in s, as a sorted list.
func within(s colSet, ids []algebra.ColID) []algebra.ColID {
	var out []algebra.ColID
	for _, id := range ids {
		if s[id] && !slices.Contains(out, id) {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}

func sorted(ids []algebra.ColID) []algebra.ColID {
	out := slices.Clone(ids)
	slices.Sort(out)
	return out
}

// TestJoinsKeepOnlyReadColumns checks the output row of every join of
// the optimal plans of Q3, Q5, Q9 and Q10 and of 40 seeded sampled plans
// of each: it holds exactly the columns of its inputs that the join's
// predicates or an operator above it read, once each, and each input's
// block starts with the columns the predicates read of that input.
func TestJoinsKeepOnlyReadColumns(t *testing.T) {
	db, err := tpch.NewDB(0.001, 42)
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(db)
	joins := 0
	for _, name := range []string{"Q3", "Q5", "Q9", "Q10"} {
		sqlText, _ := tpch.Query(name)
		p, err := e.Prepare(sqlText)
		if err != nil {
			t.Fatal(err)
		}
		q := p.Shared.Query
		plans := []*plan.Node{p.OptimalPlan()}
		smp, err := p.Sampler(23)
		if err != nil {
			t.Fatal(err)
		}
		for range 40 {
			_, pl, err := smp.Next()
			if err != nil {
				t.Fatal(err)
			}
			plans = append(plans, pl)
		}
		for i, pl := range plans {
			above := map[*plan.Node]colSet{}
			readsAbove(pl, q, colSet{}, above)
			layouts, err := exec.JoinLayouts(pl, db, q)
			if err != nil {
				t.Fatal(err)
			}
			for _, l := range layouts {
				joins++
				where := fmt.Sprintf("%s plan %d, join %s", name, i, l.Node.Expr.Name())
				preds := opReads(l.Node.Expr, q)
				keep := colSet{}
				for c := range above[l.Node] {
					keep[c] = true
				}
				for c := range preds {
					keep[c] = true
				}
				out := append(slices.Clone(l.OutLeft), l.OutRight...)
				if got, want := sorted(out), within(keep, append(slices.Clone(l.Left), l.Right...)); !slices.Equal(got, want) {
					t.Fatalf("%s: output columns %v, want %v", where, got, want)
				}
				if got, want := sorted(l.OutLeft[:l.LeftPreds]), within(preds, l.Left); !slices.Equal(got, want) {
					t.Fatalf("%s: left block starts %v, want the predicate columns %v", where, got, want)
				}
				if got, want := sorted(l.OutRight[:l.RightPreds]), within(preds, l.Right); !slices.Equal(got, want) {
					t.Fatalf("%s: right block starts %v, want the predicate columns %v", where, got, want)
				}
			}
		}
	}
	if joins == 0 {
		t.Fatal("no joins checked")
	}
	t.Logf("%d joins checked", joins)
}

// TestJoinsGatherTheAcceptedCandidate: a join gathers a candidate's
// predicate columns first and its other columns only once the
// predicates accept the pair. Every key here matches several rows on
// either side, and the residual lx < ry rejects candidates between
// accepted ones, so a join that kept the other columns of a rejected
// candidate, or of the previous accepted one, would emit a wrong
// payload. Every plan of the space must return the same rows, and the
// space holds nested-loop, hash and index nested-loop joins.
func TestJoinsGatherTheAcceptedCandidate(t *testing.T) {
	cols := func(p string) []catalog.Column {
		return []catalog.Column{
			{Name: p + "k", Kind: data.KindInt}, {Name: p + "x", Kind: data.KindInt}, {Name: p + "pay", Kind: data.KindString},
		}
	}
	db := keyDB(t,
		keyTable{name: "l", cols: cols("l"), rows: [][]any{
			{int64(1), int64(5), "A"}, {int64(1), int64(1), "B"}, {int64(1), int64(9), "C"},
			{int64(1), int64(2), "D"}, {int64(2), int64(4), "E"}, {int64(2), int64(0), "F"},
		}},
		keyTable{name: "r", cols: cols("r"), rows: [][]any{
			{int64(1), int64(3), "X"}, {int64(2), int64(1), "Y"}, {int64(1), int64(6), "Z"},
			{int64(2), int64(5), "W"},
		}},
	)
	// Pairs with lk = rk and lx < rx.
	want := []string{
		"B|X", "D|X", // rx 3: A and C rejected around them
		"A|Z", "B|Z", "D|Z", // rx 6: C rejected
		"F|Y",        // rx 1: E rejected
		"E|W", "F|W", // rx 5
	}
	used := allPlansReturn(t, db, "SELECT lpay, rpay FROM l, r WHERE lk = rk AND lx < rx", want)
	for _, op := range []memo.OpKind{memo.NestedLoopJoin, memo.HashJoin, memo.IndexNLJoin} {
		if used[op] == 0 {
			t.Errorf("no plan of the space uses %v: %v", op, used)
		}
	}
}
