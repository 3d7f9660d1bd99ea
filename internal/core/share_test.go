package core

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/algebra"
	"repro/internal/memo"
	"repro/internal/plan"
	"repro/internal/rules"
	"repro/internal/sql"
	"repro/internal/tpch"
)

// tpchMemo builds the memo of one TPC-H query's search space,
// with or without Cartesian products. Memo structure depends on the
// schema and the rules, not on statistics or data.
func tpchMemo(t testing.TB, name string, cross bool) *memo.Memo {
	t.Helper()
	text, ok := tpch.Query(name)
	if !ok {
		t.Fatalf("no TPC-H query %s", name)
	}
	stmt, err := sql.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	q, err := algebra.Build(stmt, tpch.Schema())
	if err != nil {
		t.Fatal(err)
	}
	cfg := rules.Default()
	cfg.AllowCartesian = cross
	m, err := rules.BuildMemo(q, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// sharingCases are the spaces the sharing contract is pinned on: lists
// is the number of distinct (child group, required ordering) keys the
// kept slots ask for, entries the candidates those lists hold, and
// perSlot the candidates one copy per operator slot would hold.
var sharingCases = []struct {
	name                    string
	query                   string
	cross                   bool
	lists, entries, perSlot int
}{
	{"Q5", "Q5", false, 132, 1164, 9124},
	{"Q8", "Q8", false, 170, 1735, 16099},
	{"Q8cross", "Q8", true, 2266, 38539, 777811},
}

// TestCandidateListsShared is the sharing contract of the count table:
// every kept slot with the same (child group, required ordering) names
// the same list, distinct keys name distinct lists, and each list is
// the Section 3.1 filter — recomputed here from Group.Physical and
// Delivered.Satisfies — in the same order. The pinned list and entry
// counts fail on a return to per-slot copies.
func TestCandidateListsShared(t *testing.T) {
	for _, tc := range sharingCases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Prepare(tpchMemo(t, tc.query, tc.cross))
			if err != nil {
				t.Fatal(err)
			}
			byKey := make(map[string]int32)
			perSlot := 0
			for _, op := range s.ops {
				e := op.expr
				for i := int32(0); i < op.nslot; i++ {
					li := s.slots[op.first+i]
					var (
						key  string
						want []*memo.Expr
					)
					if e.IsEnforcer() {
						key = fmt.Sprintf("%d/enforcer", e.Group.ID)
						for _, c := range e.Group.Physical {
							if !c.IsEnforcer() {
								want = append(want, c)
							}
						}
					} else {
						g, req := e.Children[i], plan.RequiredOf(e, int(i))
						key = fmt.Sprintf("%d/%s", g.ID, req)
						for _, c := range g.Physical {
							if c.Delivered.Satisfies(req) {
								want = append(want, c)
							}
						}
					}
					if have, ok := byKey[key]; ok && have != li {
						t.Fatalf("slot %d of %s names list %d, an earlier slot with key %s names %d", i, e.Name(), li, key, have)
					}
					byKey[key] = li
					got := s.lists[li].ops
					if len(got) != len(want) {
						t.Fatalf("slot %d of %s: list %d holds %d candidates, the filter gives %d", i, e.Name(), li, len(got), len(want))
					}
					for j, c := range got {
						if s.ops[c].expr != want[j] {
							t.Fatalf("slot %d of %s: candidate %d is %s, the filter gives %s", i, e.Name(), j, s.ops[c].expr.Name(), want[j].Name())
						}
					}
					perSlot += len(want)
				}
			}
			if len(byKey) != len(s.lists) {
				t.Errorf("%d distinct keys but %d lists", len(byKey), len(s.lists))
			}
			entries := 0
			for _, l := range s.lists {
				entries += len(l.ops)
			}
			if len(s.lists) != tc.lists || entries != tc.entries || perSlot != tc.perSlot {
				t.Errorf("%d lists holding %d candidates (%d as per-slot copies); pinned %d, %d, %d",
					len(s.lists), entries, perSlot, tc.lists, tc.entries, tc.perSlot)
			}
		})
	}
}

// TestFootprintAgainstHeap checks MemoryFootprint against the memory a
// space really holds: the Q8+cross space (~19k physical operators) must
// price below 10 MB, and the count-table part of the footprint must be
// within ±10% of the live-heap growth across Prepare on an
// already-built memo, so the structure cache's byte accounting rests on
// a measurement.
func TestFootprintAgainstHeap(t *testing.T) {
	for _, tc := range []struct {
		name  string
		query string
		cross bool
	}{{"Q5", "Q5", false}, {"Q8cross", "Q8", true}} {
		t.Run(tc.name, func(t *testing.T) {
			m := tpchMemo(t, tc.query, tc.cross)
			before := liveHeap()
			s, err := Prepare(m)
			if err != nil {
				t.Fatal(err)
			}
			grown := liveHeap() - before
			tables := s.tableBytes()
			runtime.KeepAlive(s)
			t.Logf("footprint %d B, count tables %d B, live heap grew %d B", s.MemoryFootprint(), tables, grown)
			if d := float64(tables-grown) / float64(grown); d < -0.1 || d > 0.1 {
				t.Errorf("count tables priced at %d B, live heap grew %d B across Prepare (%+.0f%%)", tables, grown, 100*d)
			}
			if tc.cross && s.MemoryFootprint() >= 10<<20 {
				t.Errorf("Q8+cross footprint %d B, want below 10 MB", s.MemoryFootprint())
			}
		})
	}
}

// liveHeap returns the bytes of live heap objects, read after two full
// collections: the second settles what the first left behind.
func liveHeap() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
