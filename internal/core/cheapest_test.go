package core

import (
	"math"
	"math/big"
	"sync"
	"testing"

	"repro/internal/memo"
	"repro/internal/plan"
)

// TestCheapestTiesGoToGroupOrder: under a constant cost every choice
// ties, so each list keeps its first operator that covers a plan and
// the root its first such operator — exactly the choices plan 0 makes.
func TestCheapestTiesGoToGroupOrder(t *testing.T) {
	for _, tc := range []struct {
		name  string
		query string
		cross bool
	}{{"star", "", false}, {"Q5", "Q5", false}, {"Q8cross", "Q8", true}} {
		t.Run(tc.name, func(t *testing.T) {
			var s *Space
			if tc.query == "" {
				s, _ = prepared(t, starQuery)
			} else {
				var err error
				if s, err = Prepare(tpchMemo(t, tc.query, tc.cross)); err != nil {
					t.Fatal(err)
				}
			}
			best, c, err := s.Cheapest(func(*memo.Expr, []float64) (float64, error) { return 0, nil })
			if err != nil {
				t.Fatal(err)
			}
			first, err := s.Unrank(new(big.Int))
			if err != nil {
				t.Fatal(err)
			}
			if c != 0 || !plan.Equal(best, first) {
				t.Errorf("cheapest under a constant cost (%g):\n%s\nwant plan 0:\n%s", c, best, first)
			}
		})
	}
}

// TestCheapestIsBruteForceMinimum: on a space small enough to
// enumerate, the fold's cost is the least cost any plan has, and its
// plan has that cost.
func TestCheapestIsBruteForceMinimum(t *testing.T) {
	s, _ := prepared(t, "SELECT v1 FROM fact, d1, d2 WHERE f1 = k1 AND f2 = k2")
	// A cost that depends on every operator's identity and on the
	// child order, so that different plans rarely tie.
	combine := func(e *memo.Expr, cc []float64) (float64, error) {
		total := float64(e.ID%7 + 1)
		for i, c := range cc {
			total += float64(i+1) * c
		}
		return total, nil
	}
	var costOf func(*plan.Node) float64
	costOf = func(n *plan.Node) float64 {
		cc := make([]float64, len(n.Children))
		for i, k := range n.Children {
			cc[i] = costOf(k)
		}
		c, _ := combine(n.Expr, cc)
		return c
	}
	best, c, err := s.Cheapest(combine)
	if err != nil {
		t.Fatal(err)
	}
	if got := costOf(best); got != c {
		t.Errorf("cheapest plan costs %g, fold reported %g", got, c)
	}
	least := math.Inf(1)
	err = s.Enumerate(func(_ *big.Int, p *plan.Node) bool {
		least = math.Min(least, costOf(p))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if c != least {
		t.Errorf("fold found %g, least cost over all %s plans is %g", c, s.Count(), least)
	}
}

// TestCheapestRejectsNonFiniteCost: a NaN or infinite cost has no
// minimum to take part in, so the fold reports it.
func TestCheapestRejectsNonFiniteCost(t *testing.T) {
	s, _ := prepared(t, starQuery)
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		if _, _, err := s.Cheapest(func(*memo.Expr, []float64) (float64, error) { return bad, nil }); err == nil {
			t.Errorf("cost %g: no error", bad)
		}
	}
}

// TestCheapestConcurrent: folds over one space share nothing but the
// space, so concurrent callers get the same answer (run under -race).
func TestCheapestConcurrent(t *testing.T) {
	s, _ := prepared(t, starQuery)
	combine := func(e *memo.Expr, cc []float64) (float64, error) {
		total := float64(e.ID%5 + 1)
		for _, c := range cc {
			total += c
		}
		return total, nil
	}
	want, wantCost, err := s.Cheapest(combine)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				got, c, err := s.Cheapest(combine)
				if err != nil || c != wantCost || !plan.Equal(got, want) {
					t.Errorf("concurrent fold: cost %g (want %g), err %v", c, wantCost, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
