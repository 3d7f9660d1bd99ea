package core

import (
	"errors"
	"math/big"
	"testing"

	"repro/internal/fixture"
	"repro/internal/memo"
	"repro/internal/plan"
)

// TestSampleRanksWideIntoMatchesStream: the flat batch API must consume
// the generator exactly like plan-by-plan NextRank — same seed, same
// rank sequence — on a forced-wide small space (exhaustively
// checkable) and on a genuinely multi-limb space (the 2^128 boundary
// chain).
func TestSampleRanksWideIntoMatchesStream(t *testing.T) {
	cases := map[string]struct {
		m    *memo.Memo
		opts []Option
	}{
		"fixture-forced-wide": {m: fixture.New().Memo, opts: []Option{WithWideArithmetic()}},
		"chain-2^128":         {m: chainMemo(128)},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			s, err := Prepare(tc.m, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			if s.Arithmetic() != "wide" {
				t.Fatalf("space not on the wide tier (%s)", s.Arithmetic())
			}
			const k = 257 // not a multiple of any internal chunking
			stride := s.RankLimbs()

			ref, err := s.NewSampler(42)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]*big.Int, k)
			for i := range want {
				want[i] = ref.NextRank()
			}

			smp, err := s.NewSampler(42)
			if err != nil {
				t.Fatal(err)
			}
			flat := make([]uint64, k*stride)
			if err := smp.SampleRanksWideInto(flat, k); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < k; i++ {
				got := WideNorm(flat[i*stride : (i+1)*stride])
				if bigFromLimbs(got).Cmp(want[i]) != 0 {
					t.Fatalf("draw %d: batch %s, stream %s", i, bigFromLimbs(got), want[i])
				}
			}

			// Every batched rank unranks to a valid plan of the space.
			var arena Arena
			for i := 0; i < k; i++ {
				r := WideNorm(flat[i*stride : (i+1)*stride])
				p, err := s.UnrankWideInto(r, &arena)
				if err != nil {
					t.Fatalf("unrank batched draw %d: %v", i, err)
				}
				if err := p.Validate(); err != nil {
					t.Fatalf("batched draw %d invalid: %v", i, err)
				}
			}
		})
	}
}

// TestSampleRanksWideIntoErrors: tier and buffer-size misuse come back
// as errors, not corruption.
func TestSampleRanksWideIntoErrors(t *testing.T) {
	fast, err := Prepare(fixture.New().Memo)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := fast.NewSampler(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.SampleRanksWideInto(make([]uint64, 16), 4); err == nil {
		t.Error("uint64-tier sampler accepted SampleRanksWideInto")
	}

	wide, err := Prepare(fixture.New().Memo, WithWideArithmetic())
	if err != nil {
		t.Fatal(err)
	}
	ws, err := wide.NewSampler(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := ws.SampleRanksWideInto(make([]uint64, wide.RankLimbs()*3), 4); err == nil {
		t.Error("short buffer accepted (3 ranks of room, 4 requested)")
	}
}

// TestEachMatchesNextRankUnrank: the one sampling loop yields exactly
// the (rank, plan) sequence of plan-by-plan NextRank + Unrank for one
// seed, on every tier and across chunk boundaries — into a reused
// arena, and into fresh plans (a == nil) that stay valid after later
// yields.
func TestEachMatchesNextRankUnrank(t *testing.T) {
	cases := []struct {
		name  string
		m     *memo.Memo
		opts  []Option
		arith string
	}{
		{"fixture-uint64", fixture.New().Memo, nil, "uint64"},
		{"fixture-wide", fixture.New().Memo, []Option{WithWideArithmetic()}, "wide"},
		{"chain-2^128", chainMemo(128), nil, "wide"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Prepare(tc.m, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			if s.Arithmetic() != tc.arith {
				t.Fatalf("tier %s, want %s", s.Arithmetic(), tc.arith)
			}
			const k = eachChunk + 45 // crosses a chunk boundary
			ref, err := s.NewSampler(42)
			if err != nil {
				t.Fatal(err)
			}
			wantRanks := make([]*big.Int, k)
			wantPlans := make([]string, k)
			for i := range wantRanks {
				wantRanks[i] = ref.NextRank()
				p, err := s.Unrank(wantRanks[i])
				if err != nil {
					t.Fatal(err)
				}
				wantPlans[i] = p.Digest()
			}

			for _, arena := range []*Arena{new(Arena), nil} {
				smp, err := s.NewSampler(42)
				if err != nil {
					t.Fatal(err)
				}
				kept := make([]*plan.Node, 0, k)
				err = smp.Each(k, arena, func(i int, rank []uint64, p *plan.Node) error {
					if got := bigFromLimbs(rank); got.Cmp(wantRanks[i]) != 0 {
						t.Fatalf("arena=%v draw %d: rank %s, want %s", arena != nil, i, got, wantRanks[i])
					}
					if p.Digest() != wantPlans[i] {
						t.Fatalf("arena=%v draw %d: plan differs from Unrank", arena != nil, i)
					}
					kept = append(kept, p)
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if len(kept) != k {
					t.Fatalf("arena=%v: %d yields, want %d", arena != nil, len(kept), k)
				}
				if arena == nil {
					for i, p := range kept {
						if p.Digest() != wantPlans[i] {
							t.Fatalf("fresh plan %d changed after later yields", i)
						}
					}
				}
			}
		})
	}
}

// TestEachStopsOnYieldError: a yield error ends the loop and is
// returned unchanged.
func TestEachStopsOnYieldError(t *testing.T) {
	s, err := Prepare(fixture.New().Memo)
	if err != nil {
		t.Fatal(err)
	}
	smp, err := s.NewSampler(1)
	if err != nil {
		t.Fatal(err)
	}
	stop := errors.New("stop")
	calls := 0
	err = smp.Each(10, nil, func(i int, _ []uint64, _ *plan.Node) error {
		calls++
		if i == 3 {
			return stop
		}
		return nil
	})
	if err != stop || calls != 4 {
		t.Fatalf("Each returned %v after %d calls, want stop after 4", err, calls)
	}
}
