package oracle

import (
	"math/big"
	"testing"

	"repro/internal/algebra"
	"repro/internal/fixture"
	"repro/internal/memo"
)

// TestFixtureBijection checks the oracle on its own against the paper's
// Figure 3: 25 plans, every rank unranks to a distinct valid plan, and
// ranking inverts unranking.
func TestFixtureBijection(t *testing.T) {
	o := New(fixture.New().Memo)
	if o.Count().Int64() != 25 {
		t.Fatalf("fixture holds %s plans, want 25", o.Count())
	}
	seen := make(map[string]bool)
	for r := int64(0); r < 25; r++ {
		p, err := o.Unrank(big.NewInt(r))
		if err != nil {
			t.Fatalf("Unrank(%d): %v", r, err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("plan %d invalid: %v", r, err)
		}
		if seen[p.Digest()] {
			t.Fatalf("plan %d repeats an earlier plan", r)
		}
		seen[p.Digest()] = true
		back, err := o.Rank(p)
		if err != nil || back.Int64() != r {
			t.Fatalf("Rank(Unrank(%d)) = %v, %v", r, back, err)
		}
	}
	for _, r := range []int64{-1, 25} {
		if _, err := o.Unrank(big.NewInt(r)); err == nil {
			t.Errorf("Unrank(%d) succeeded; want out-of-range error", r)
		}
	}
}

// TestRankRejectsForeignPlan: a plan of another memo is an error.
func TestRankRejectsForeignPlan(t *testing.T) {
	o := New(fixture.New().Memo)
	p, err := New(fixture.New().Memo).Unrank(big.NewInt(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Rank(p); err == nil {
		t.Error("ranking a foreign plan succeeded")
	}
}

// TestRootlessMemo: a memo without a root group has no plans.
func TestRootlessMemo(t *testing.T) {
	o := New(memo.New(algebra.NewQuery()))
	if o.Count().Sign() != 0 {
		t.Fatalf("rootless memo counts %s plans", o.Count())
	}
	if _, err := o.Unrank(new(big.Int)); err == nil {
		t.Error("Unrank on an empty space succeeded")
	}
}
