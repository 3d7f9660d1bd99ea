package plan_test

import (
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/cost"
	"repro/internal/fixture"
	"repro/internal/memo"
	"repro/internal/plan"
)

func appendix(t *testing.T) (*fixture.Paper, *plan.Node) {
	t.Helper()
	p := fixture.New()
	return p, p.AppendixPlan()
}

func TestOperatorsPreorder(t *testing.T) {
	_, n := appendix(t)
	var names []string
	for _, op := range n.Operators() {
		names = append(names, op.Name())
	}
	want := []string{"7.7", "4.3", "3.4", "1.3", "2.3"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("preorder = %v, want %v", names, want)
	}
}

func TestDigestDistinguishesPlans(t *testing.T) {
	p, n := appendix(t)
	other := &plan.Node{
		Expr: p.Op("7.7"),
		Children: []*plan.Node{
			{Expr: p.Op("4.2")},
			n.Children[1],
		},
	}
	if n.Digest() == other.Digest() {
		t.Error("different plans share a digest")
	}
	if n.Digest() != p.AppendixPlan().Digest() {
		t.Error("equal plans have different digests")
	}
}

func TestEqual(t *testing.T) {
	p, n := appendix(t)
	if !plan.Equal(n, p.AppendixPlan()) {
		t.Error("identical plans unequal")
	}
	variant := p.AppendixPlan()
	variant.Children[0] = &plan.Node{Expr: p.Op("4.2")}
	if plan.Equal(n, variant) {
		t.Error("different plans equal")
	}
	if plan.Equal(n, nil) || !plan.Equal(nil, nil) {
		t.Error("nil handling wrong")
	}
}

func TestValidateCatchesBrokenPlans(t *testing.T) {
	p, good := appendix(t)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}

	// Wrong group for a child slot.
	wrongGroup := &plan.Node{
		Expr: p.Op("7.7"),
		Children: []*plan.Node{
			{Expr: p.Op("1.2")}, // group 1, slot wants group 4
			good.Children[1],
		},
	}
	if err := wrongGroup.Validate(); err == nil {
		t.Error("wrong-group child accepted")
	}

	// Property violation: 3.4 (merge join) requires its first child
	// sorted; TableScan 1.2 delivers nothing.
	unsorted := &plan.Node{
		Expr: p.Op("3.4"),
		Children: []*plan.Node{
			{Expr: p.Op("1.2")},
			{Expr: p.Op("2.3")},
		},
	}
	if err := unsorted.Validate(); err == nil || !strings.Contains(err.Error(), "requires") {
		t.Errorf("property violation accepted: %v", err)
	}

	// Wrong arity.
	shortPlan := &plan.Node{Expr: p.Op("7.7"), Children: []*plan.Node{{Expr: p.Op("4.3")}}}
	if err := shortPlan.Validate(); err == nil {
		t.Error("arity violation accepted")
	}

	// Logical operator in a plan.
	logical := &plan.Node{Expr: p.Op("1.1")}
	if err := logical.Validate(); err == nil {
		t.Error("logical operator accepted")
	}

	// Enforcer stacked on enforcer.
	sortOnSort := &plan.Node{
		Expr: p.Op("1.4"),
		Children: []*plan.Node{
			{Expr: p.Op("1.4"), Children: []*plan.Node{{Expr: p.Op("1.2")}}},
		},
	}
	if err := sortOnSort.Validate(); err == nil {
		t.Error("Sort(Sort(...)) accepted")
	}
}

func TestValidateEnforcerChild(t *testing.T) {
	p, _ := appendix(t)
	ok := &plan.Node{
		Expr:     p.Op("1.4"),
		Children: []*plan.Node{{Expr: p.Op("1.2")}},
	}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid enforcer rejected: %v", err)
	}
	foreign := &plan.Node{
		Expr:     p.Op("1.4"),
		Children: []*plan.Node{{Expr: p.Op("2.2")}},
	}
	if err := foreign.Validate(); err == nil {
		t.Error("enforcer over foreign group accepted")
	}
}

func TestStringRendering(t *testing.T) {
	_, n := appendix(t)
	s := n.String()
	for _, want := range []string{"7.7 HashJoin", "4.3 IndexScan(C.idx_C)", "3.4 MergeJoin", "delivers="} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering missing %q:\n%s", want, s)
		}
	}
	// Indentation reflects depth.
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if !strings.HasPrefix(lines[1], "  ") || !strings.HasPrefix(lines[3], "    ") {
		t.Errorf("indentation wrong:\n%s", s)
	}
}

func TestCostMonotoneInChildren(t *testing.T) {
	p, n := appendix(t)
	// Cost the appendix plan; then replace a child with a Sort-wrapped
	// variant, which must never be cheaper.
	tab, err := cost.Fill(p.Memo, p.Query, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf plan.CostBuf
	base, err := n.CostWith(tab, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if base <= 0 {
		t.Fatalf("cost = %g", base)
	}
	wrapped := p.AppendixPlan()
	wrapped.Children[1].Children[0] = &plan.Node{
		Expr:     p.Op("1.4"),
		Children: []*plan.Node{{Expr: p.Op("1.3")}},
	}
	withSort, err := wrapped.CostWith(tab, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if withSort <= base {
		t.Errorf("adding a redundant sort did not increase cost: %g vs %g", withSort, base)
	}
}

func TestRequiredOf(t *testing.T) {
	p, _ := appendix(t)
	mj := p.Op("3.4")
	if plan.RequiredOf(mj, 0).IsNone() || plan.RequiredOf(mj, 1).IsNone() {
		t.Error("merge join requirements missing")
	}
	hj := p.Op("3.3")
	if !plan.RequiredOf(hj, 0).IsNone() {
		t.Error("hash join should not require orderings")
	}
	if !plan.RequiredOf(hj, 5).IsNone() {
		t.Error("out-of-range slot should be unconstrained")
	}
	var _ algebra.Ordering = plan.RequiredOf(mj, 0)
	var _ memo.OpKind = mj.Op
}
