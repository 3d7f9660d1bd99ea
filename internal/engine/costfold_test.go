package engine_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/tpch"
)

// stackCost is the plan costing CostWith replaced: every node's child
// costs evaluated onto a shared stack, then Tables.Combine over them.
// Kept here as the reference the direct fold must match bit for bit.
func stackCost(n *plan.Node, t *cost.Tables, stack *[]float64) (float64, error) {
	base := len(*stack)
	for _, c := range n.Children {
		cc, err := stackCost(c, t, stack)
		if err != nil {
			*stack = (*stack)[:base]
			return 0, err
		}
		*stack = append(*stack, cc)
	}
	total, err := t.Combine(n.Expr, (*stack)[base:])
	*stack = (*stack)[:base]
	return total, err
}

// TestScaledCostBitIdentical: for 5,000 seeded ranks each of Q3, Q5, Q9
// and Q8 with Cartesian products (the wide tier), ScaledCostWith equals
// the stack-and-Combine reference through math.Float64bits, and a plan
// of another memo still fails to cost.
func TestScaledCostBitIdentical(t *testing.T) {
	e := engine.New(tinyTPCH(t))
	const draws = 5000
	var small *engine.Prepared
	for _, tc := range []struct {
		q     string
		cross bool
	}{{"Q3", false}, {"Q5", false}, {"Q9", false}, {"Q8", true}} {
		sqlText, ok := tpch.Query(tc.q)
		if !ok {
			t.Fatalf("unknown query %s", tc.q)
		}
		p, err := e.Session(engine.WithCartesian(tc.cross)).Prepare(sqlText)
		if err != nil {
			t.Fatal(err)
		}
		if tc.cross && p.Space.Arithmetic() != "wide" {
			t.Fatalf("%s+cross on tier %s, want wide", tc.q, p.Space.Arithmetic())
		}
		smp, err := p.Sampler(11)
		if err != nil {
			t.Fatal(err)
		}
		var (
			arena core.Arena
			buf   plan.CostBuf
			stack []float64
		)
		err = smp.Each(draws, &arena, func(i int, rank []uint64, pl *plan.Node) error {
			got, err := p.ScaledCostWith(pl, &buf)
			if err != nil {
				t.Fatalf("%s draw %d: %v", tc.q, i, err)
			}
			c, err := stackCost(pl, p.Opt.Tables, &stack)
			if err != nil {
				t.Fatalf("%s draw %d: reference: %v", tc.q, i, err)
			}
			if want := c / p.Opt.BestCost; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s draw %d: scaled cost %v (%#x), reference %v (%#x)",
					tc.q, i, got, math.Float64bits(got), want, math.Float64bits(want))
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if small == nil {
			small = p
			continue
		}
		// A plan of this (larger) memo under the first query's overlay.
		foreign, err := p.Unrank(p.Opt.OptimalRank)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := small.ScaledCostWith(foreign, &buf); err == nil {
			t.Errorf("%s plan costed under Q3's overlay", tc.q)
		}
	}
}
