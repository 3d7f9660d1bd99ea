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
// — so a space forced onto the wide tier (WithWideArithmetic) yields
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

// Fast reports whether the sampler runs on the uint64 tier; NextRank64
// and SampleRanks require it.
func (smp *Sampler) Fast() bool { return smp.space.fits }

// Wide reports whether the sampler runs on the wide limb tier;
// NextRankInto and SampleRanksWideInto require it.
func (smp *Sampler) Wide() bool { return !smp.space.fits }

// draw fills dst[:limbs] with one uniform rank in [0, N) as canonical
// little-endian limbs and returns it truncated to canonical length.
// The first generator word is the most significant, as in the
// historical big.Int draw order, so every tier consumes the generator
// identically.
func (smp *Sampler) draw(dst []uint64) []uint64 {
	n := smp.limbs
	for {
		for i := n - 1; i >= 0; i-- {
			dst[i] = smp.rng.Uint64()
		}
		dst[n-1] >>= smp.shift
		if r := wideNorm(dst[:n]); wideCmp(r, smp.space.totalW) < 0 {
			return r
		}
	}
}

// fill draws k ranks into the fixed-stride rows of dst (limbs per
// row). draw writes every limb of its row, so each row is a canonical
// rank followed by zero padding.
func (smp *Sampler) fill(dst []uint64, k int) {
	stride := smp.limbs
	for i := 0; i < k; i++ {
		smp.draw(dst[i*stride : (i+1)*stride])
	}
}

// NextRank64 returns a uniform rank in [0, N) on the uint64 tier with
// no heap allocation; it consumes the generator exactly like draw. It
// panics when the space is served by the wide tier — check Fast (or
// Space.FitsUint64) first.
func (smp *Sampler) NextRank64() uint64 {
	if !smp.space.fits {
		panic("core: NextRank64 on a non-uint64-tier sampler; check Fast()")
	}
	limit := smp.space.total64
	for {
		if v := smp.rng.Uint64() >> smp.shift; v < limit {
			return v
		}
	}
}

// SampleRanks fills dst with uniform ranks in [0, N) — the batched,
// allocation-free form of NextRank64. Pair with UnrankInto under one
// arena to materialize the plans, or use Each, which does both.
func (smp *Sampler) SampleRanks(dst []uint64) error {
	if !smp.space.fits {
		return smp.space.errNotUint64()
	}
	for i := range dst {
		dst[i] = smp.NextRank64()
	}
	return nil
}

// NextRankInto fills dst with a uniform rank in [0, N) as canonical
// little-endian limbs on the wide tier, with no heap allocation; dst
// must have length Space.RankLimbs(). The returned slice is dst
// truncated to canonical length. It panics off the wide tier — check
// Wide() first.
func (smp *Sampler) NextRankInto(dst []uint64) []uint64 {
	if smp.space.fits {
		panic("core: NextRankInto on a non-wide-tier sampler; check Wide()")
	}
	if len(dst) < smp.limbs {
		panic(fmt.Sprintf("core: NextRankInto buffer holds %d limbs, rank needs %d (Space.RankLimbs)", len(dst), smp.limbs))
	}
	return smp.draw(dst)
}

// SampleRanksWideInto fills dst with k uniform ranks in [0, N) as
// fixed-stride little-endian limb rows on the wide tier — the batched,
// allocation-free analogue of SampleRanks for spaces beyond 2^64. dst
// must hold at least k × Space.RankLimbs() limbs; row i occupies
// dst[i*stride : (i+1)*stride], zero-padded above the rank's canonical
// length (a flat buffer needs a fixed stride; WideNorm recovers the
// canonical slice). The draws consume the generator exactly like k
// successive NextRankInto calls, so batch and plan-by-plan sampling
// yield identical rank streams for one seed.
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

// Sample draws k plans (with replacement, as in the paper's 10,000-plan
// experiments).
func (smp *Sampler) Sample(k int) ([]*plan.Node, error) {
	out := make([]*plan.Node, k)
	err := smp.Each(k, nil, func(i int, _ []uint64, p *plan.Node) error {
		out[i] = p
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// DeriveSeed mixes a worker index into the base seed (splitmix64 step) so
// workers draw independent streams. It is the canonical derivation for
// any caller that shards sampling across workers (e.g. the experiments
// pipeline): using the same derivation keeps parallel runs
// deterministic for a given (seed, k, workers) triple.
func DeriveSeed(seed int64, worker int) int64 {
	z := uint64(seed) + uint64(worker+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}
