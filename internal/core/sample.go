package core

import (
	"fmt"
	"math/big"
	"math/rand"

	"repro/internal/plan"
)

// Sampler draws plans uniformly at random from a space by generating
// uniform integers in [0, N) and unranking them — the paper's reduction
// of uniform plan sampling to random number generation. A Sampler is
// deterministic for a given seed (experiments are reproducible) and must
// not be shared across goroutines; the underlying Space may be.
//
// Rejection sampling draws ⌈bits(N)/64⌉ generator words per attempt and
// keeps the top bits(N) bits, succeeding with probability > 1/2. The
// draw is one limb loop on every arithmetic tier — same word count,
// same order, same top-word shift, compared against N's limbs in place
// — so a space a test forces onto the wide tier yields
// bit-identical rank sequences to the uint64 tier for the same seed;
// the draw itself allocates nothing.
type Sampler struct {
	space *Space
	rng   *rand.Rand

	shift uint     // top-word right shift so a draw has exactly bitlen(N) bits
	limbs int      // words per draw == Space.RankLimbs()
	rank  []uint64 // limb buffer for NextRank/Next draws
}

// NewSampler returns a seeded sampler over the space.
func (s *Space) NewSampler(seed int64) (*Sampler, error) {
	if s.total.Sign() <= 0 {
		return nil, fmt.Errorf("core: cannot sample from an empty space")
	}
	limbs := s.RankLimbs()
	return &Sampler{
		space: s,
		rng:   rand.New(rand.NewSource(seed)),
		shift: uint(limbs*64 - s.total.BitLen()),
		limbs: limbs,
		rank:  make([]uint64, limbs),
	}, nil
}

// Fast reports whether the sampler runs on the uint64 tier;
// SampleRanks requires it.
func (smp *Sampler) Fast() bool { return smp.space.fits }

// Wide reports whether the sampler runs on the wide limb tier;
// SampleRanksWideInto requires it.
func (smp *Sampler) Wide() bool { return !smp.space.fits }

// fill draws k uniform ranks in [0, N) into the fixed-stride rows of
// dst (limbs per row) — the one rejection loop behind every sampling
// entry point. Each attempt draws one generator word per limb, most
// significant first, and shifts the first word so the row has exactly
// bitlen(N) bits; so every tier consumes the generator identically.
// Every limb of a row is written, so each row is a canonical rank
// followed by zero padding.
func (smp *Sampler) fill(dst []uint64, k int) {
	rng, shift := smp.rng, smp.shift
	n, total := smp.limbs, smp.space.totalW // len(total) == n: N > 0
	nTop := total[n-1]
	for row := 0; row < k; row++ {
		r := dst[row*n : (row+1)*n]
		for {
			top := rng.Uint64() >> shift
			for i := n - 2; i >= 0; i-- {
				r[i] = rng.Uint64()
			}
			r[n-1] = top
			if top < nTop || top == nTop && wideCmp(wideNorm(r[:n-1]), wideNorm(total[:n-1])) < 0 {
				break
			}
		}
	}
}

// draw fills dst[:limbs] with one uniform rank and returns it
// truncated to canonical length.
func (smp *Sampler) draw(dst []uint64) []uint64 {
	smp.fill(dst, 1)
	return wideNorm(dst[:smp.limbs])
}

// SampleRanks fills dst with uniform ranks in [0, N) on the uint64
// tier, with no heap allocation: the one-limb rows of the shared
// rejection loop, so it consumes the generator exactly like Each. Pair
// with UnrankInto under one arena to materialize the plans, or use
// Each, which does both.
func (smp *Sampler) SampleRanks(dst []uint64) error {
	if !smp.space.fits {
		return smp.space.errNotUint64()
	}
	smp.fill(dst, len(dst))
	return nil
}

// SampleRanksWideInto fills dst with k uniform ranks in [0, N) as
// fixed-stride little-endian limb rows on the wide tier — the batched,
// allocation-free analogue of SampleRanks for spaces beyond 2^64. dst
// must hold at least k × Space.RankLimbs() limbs; row i occupies
// dst[i*stride : (i+1)*stride], zero-padded above the rank's canonical
// length (a flat buffer needs a fixed stride; WideNorm recovers the
// canonical slice). The draws run the shared rejection loop, so batch
// and plan-by-plan sampling (Each, NextRank) yield identical rank
// streams for one seed.
func (smp *Sampler) SampleRanksWideInto(dst []uint64, k int) error {
	if smp.space.fits {
		return fmt.Errorf("core: SampleRanksWideInto on a non-wide-tier sampler; check Wide()")
	}
	if len(dst) < k*smp.limbs {
		return fmt.Errorf("core: SampleRanksWideInto buffer holds %d limbs, %d ranks need %d (k x Space.RankLimbs)",
			len(dst), k, k*smp.limbs)
	}
	smp.fill(dst, k)
	return nil
}

// NextRank returns a uniform rank in [0, N) by rejection sampling on
// bit-strings of N's length: each draw succeeds with probability > 1/2,
// so the expected number of draws is below 2.
func (smp *Sampler) NextRank() *big.Int {
	return limbsToBig(smp.draw(smp.rank))
}

// Next draws one uniform plan with its rank; the plan is freshly
// allocated.
func (smp *Sampler) Next() (*big.Int, *plan.Node, error) {
	r := smp.draw(smp.rank)
	p, err := smp.space.UnrankWideInto(r, nil)
	if err != nil {
		return nil, nil, err
	}
	return limbsToBig(r), p, nil
}

// eachChunk is how many ranks Each draws per batch.
const eachChunk = 256

// Each draws k uniform plans and calls yield with each draw's index,
// rank, and plan, in draw order — the one sampling loop on every tier.
// Ranks are drawn in chunks into a flat buffer of RankLimbs()-limb rows
// (one limb on the uint64 tier), consuming the generator exactly like
// k successive NextRank calls, so a seed yields the same stream as
// plan-by-plan sampling. rank is canonical little-endian limbs and is
// valid only during the yield call. With a non-nil arena each plan is
// built inside a and is valid only until the next yield (after warm-up
// the uint64 and wide tiers allocate nothing per plan); with a == nil
// plans are freshly allocated and may be retained. A non-nil error
// from yield stops the loop and is returned.
func (smp *Sampler) Each(k int, a *Arena, yield func(i int, rank []uint64, p *plan.Node) error) error {
	if k <= 0 {
		return nil
	}
	stride := smp.limbs
	buf := make([]uint64, min(k, eachChunk)*stride)
	wa := new(WideArena) // limb scratch when plans are freshly allocated
	if a != nil {
		wa = &a.wide
	}
	for off := 0; off < k; off += eachChunk {
		n := min(k-off, eachChunk)
		smp.fill(buf, n)
		for i := 0; i < n; i++ {
			r := wideNorm(buf[i*stride : (i+1)*stride])
			if a != nil {
				a.Reset()
			}
			wa.Reset()
			p, err := smp.space.unrankLimbs(r, a, wa)
			if err != nil {
				return err
			}
			if err := yield(off+i, r, p); err != nil {
				return err
			}
		}
	}
	return nil
}
