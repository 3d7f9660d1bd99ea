package repro

import (
	"math/big"
	"testing"

	"repro/internal/core"
	"repro/internal/oracle"
	"repro/internal/plan"
	"repro/internal/tpch"
)

// TestTPCHDualPathRoundTrip is the TPC-H half of the property-test
// satellite: for every named TPC-H query, ~1k ranks drawn by the
// production sampler must unrank to the same plan on the uint64 tier
// and on the independent reference in internal/oracle, and each side's
// plan must rank back to r on the other side — the differential
// guarantee the tiered engine rests on.
func TestTPCHDualPathRoundTrip(t *testing.T) {
	iters := 1000
	if testing.Short() {
		iters = 100
	}
	for _, q := range tpch.QueryNames() {
		t.Run(q, func(t *testing.T) {
			p := prepare(t, q, false)
			fast := p.Space
			if fast.Arithmetic() != "uint64" {
				t.Fatalf("%s space %s exceeds uint64 at this scale", q, p.Count())
			}
			ref := oracle.New(p.Opt.Memo)
			if fast.Count().Cmp(ref.Count()) != 0 {
				t.Fatalf("counts differ: core %s, oracle %s", fast.Count(), ref.Count())
			}

			fs, err := fast.NewSampler(77)
			if err != nil {
				t.Fatal(err)
			}
			ranks := make([]uint64, iters)
			if err := fs.SampleRanks(ranks); err != nil {
				t.Fatal(err)
			}
			var arena core.Arena
			for _, r := range ranks {
				rb := new(big.Int).SetUint64(r)
				pf, err := fast.UnrankInto(r, &arena)
				if err != nil {
					t.Fatalf("UnrankInto(%d): %v", r, err)
				}
				pb, err := ref.Unrank(rb)
				if err != nil {
					t.Fatalf("oracle Unrank(%d): %v", r, err)
				}
				if !plan.Equal(pf, pb) {
					t.Fatalf("rank %d: core and oracle plans differ", r)
				}
				back, err := fast.Rank(pb)
				if err != nil || back.Cmp(rb) != 0 {
					t.Fatalf("fast round trip %d -> %v, %v", r, back, err)
				}
				refBack, err := ref.Rank(pf)
				if err != nil || refBack.Cmp(rb) != 0 {
					t.Fatalf("oracle round trip %d -> %s, %v", r, refBack, err)
				}
			}
		})
	}
}

// TestTPCHOptimalPlanRankBothPaths: the optimizer's own plan carries
// the same rank in core and in the oracle for every TPC-H query.
func TestTPCHOptimalPlanRankBothPaths(t *testing.T) {
	for _, q := range tpch.QueryNames() {
		p := prepare(t, q, false)
		ref := oracle.New(p.Opt.Memo)
		rFast, err := p.Space.Rank(p.OptimalPlan())
		if err != nil {
			t.Fatalf("%s fast Rank: %v", q, err)
		}
		rRef, err := ref.Rank(p.OptimalPlan())
		if err != nil {
			t.Fatalf("%s oracle Rank: %v", q, err)
		}
		if rFast.Cmp(rRef) != 0 {
			t.Fatalf("%s: optimal plan ranks differ, core %s vs oracle %s", q, rFast, rRef)
		}
		back, err := p.Unrank(rFast)
		if err != nil {
			t.Fatalf("%s Unrank: %v", q, err)
		}
		if !plan.Equal(back, p.OptimalPlan()) {
			t.Fatalf("%s: Unrank(Rank(best)) != best", q)
		}
	}
}
