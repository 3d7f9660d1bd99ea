// Package core implements the paper's contribution (Section 3): counting
// the execution plans encoded in a MEMO, unranking integers into plans,
// ranking plans back into integers, exhaustive enumeration, and uniform
// random sampling.
//
// The key idea is a bijection between 0..N-1 and the N plans of the
// space. After optimization the MEMO is frozen; Prepare materializes, for
// every physical operator v and child slot i, the list of candidate child
// operators w(v)[i] — the operators of the child's group whose delivered
// ordering satisfies what v requires of that slot (Section 3.1). Counting
// is then a bottom-up product-of-sums (Section 3.2):
//
//	b_v(i) = Σ_j N(w(v)[i][j])      alternatives for child i
//	B_v(k) = Π_{i<=k} b_v(i)        combined choices of first k children
//	N(v)   = 1 if v is a leaf, else B_v(|v|)
//	N      = Σ_{v in root group} N(v)
//
// and unranking decomposes a rank into a root-operator choice plus one
// sub-rank per child slot in the mixed-radix system with digit bases
// b_v(i) (Section 3.3).
//
// Each operation has one path: Count; Unrank (UnrankWideInto for limb
// ranks into a reused Arena); Rank; Enumerate/EnumerateRange; and
// Sampler.Each for sampling, over one rejection loop that NextRank,
// Next and the batch rank draws share. UnrankBigInto (Unrank into an
// arena), UnrankInto, SampleRanks and SampleRanksWideInto are thin
// wrappers over those paths.
//
// Arithmetic is tiered underneath. Counting runs bottom-up in
// overflow-checked uint64, and every node whose subtree count fits 64
// bits keeps native tables: decomposing and ranking such a subtree
// runs on native uint64 with no heap allocation (fast.go). When the
// total N fits as well — true for all of Table 1, which tops out at
// 4.4·10^12 — the unranker's root selection is native too. Spaces
// beyond 2^64 (Q8 with Cartesian products holds ~2.7·10^22 plans)
// select the root and decompose the upper nodes with fixed-allocation
// little-endian []uint64 limb arithmetic (wide.go, widepath.go), which
// hands any subtree whose count fits uint64 straight back to the
// native lane. math/big appears only at the API boundary (Count,
// Unrank, Rank); the differential tests compare both tiers against the
// independent reference in internal/oracle.
package core

import (
	"fmt"
	"math/big"
	"math/bits"

	"repro/internal/memo"
	"repro/internal/plan"
)

// Option configures Prepare.
type Option func(*config)

type config struct {
	keep      func(*memo.Expr) bool
	forceWide bool // wide tier even when the space fits uint64 (tests only)
}

// WithFilter restricts the space to operators for which keep returns
// true. The pruning ablation uses it to count the plans a discarding
// optimizer would retain; tests use it to carve sub-spaces.
func WithFilter(keep func(*memo.Expr) bool) Option {
	return func(c *config) { c.keep = keep }
}

// exprInfo is the materialized link structure of one operator: the
// candidate lists per child slot, the per-slot alternative counts b_v(i)
// with their prefix sums (for rank/unrank selection), and N(v), in the
// representation of whichever tier serves the node.
type exprInfo struct {
	expr  *memo.Expr
	cands [][]*memo.Expr

	// uint64 tables, computed by the overflow-checked bottom-up pass.
	// fits means the node's own count and its entire subtree fit in 64
	// bits (every base and prefix sum divides or bounds N(v), so they
	// fit too). Per-slot b64/prefix64 entries stay valid on non-fitting
	// nodes for every slot whose own sums fit — the wide decomposer's
	// single-limb fast lane.
	fits     bool
	n64      uint64
	b64      []uint64
	div64    []magicDiv // precomputed reciprocals of b64 (valid where b64[i] > 0)
	prefix64 [][]uint64

	// wide tables — present on nodes whose subtree overflows uint64
	// (and on every node of a space forced onto the wide tier). Per
	// slot i, bW[i] == nil means the slot fits uint64 and is served by
	// b64[i]/prefix64[i]; otherwise bW[i]/prefixW[i] hold canonical
	// little-endian limbs carved from the space's WideArena.
	nW      []uint64
	bW      [][]uint64
	prefixW [][][]uint64
}

// isZero reports N(v) == 0 in whichever representation the node carries.
func (info *exprInfo) isZero() bool {
	if info.fits {
		return info.n64 == 0
	}
	return len(info.nW) == 0
}

// wideCount returns N(v) as canonical limbs (valid on the uint64 and
// wide tiers). The returned slice must not be mutated.
func (info *exprInfo) wideCount(scratch *[1]uint64) []uint64 {
	if !info.fits {
		return info.nW
	}
	if info.n64 == 0 {
		return nil
	}
	scratch[0] = info.n64
	return scratch[:1]
}

// Space is a frozen, counted search space. It is immutable after Prepare
// and safe for concurrent Unrank/Rank calls; create one Sampler per
// goroutine for sampling.
type Space struct {
	Memo *memo.Memo

	info    []*exprInfo // indexed by memo.Expr.ID
	slab    []exprInfo  // backing store: one contiguous block, no per-node allocation
	cands   candArena   // backing store for every candidate list
	rootOps []*memo.Expr

	total  *big.Int // N, synthesized on every tier for the API surface
	totalW []uint64 // N as canonical limbs on every tier: the sampler's and unranker's range bound

	// prefixW is the root's rank-range layout as canonical limbs, built
	// on every tier: Rank and the wide unranker select root operators
	// through it.
	prefixW [][]uint64
	tab     WideArena // backing store for every count table

	// uint64 unrank root: selected when fits is true, i.e. the total
	// count (and therefore every reachable base and prefix sum) fits in
	// uint64 and the space was not forced onto the wide tier; the wide
	// tier serves every other space.
	fits     bool
	total64  uint64
	prefix64 []uint64
}

// Prepare materializes links and counts the space. It is the
// post-processing step the paper describes as having negligible overhead:
// linear in the number of operators in the MEMO.
func Prepare(m *memo.Memo, opts ...Option) (*Space, error) {
	cfg := config{keep: func(*memo.Expr) bool { return true }}
	for _, o := range opts {
		o(&cfg)
	}
	if m.Root == nil {
		return nil, fmt.Errorf("core: memo has no root group")
	}
	maxID := 0
	kept := 0
	for _, g := range m.Groups {
		for _, e := range g.Exprs {
			if e.ID > maxID {
				maxID = e.ID
			}
		}
		for _, e := range g.Physical {
			if cfg.keep(e) {
				kept++
			}
		}
	}
	// One contiguous slab for every node's link structure: the unrank
	// hot loop chases info pointers once per operator, and packing them
	// (like the limb arena packs the count tables) is worth real
	// latency on memos with tens of thousands of operators.
	s := &Space{Memo: m, info: make([]*exprInfo, maxID+1), slab: make([]exprInfo, 0, kept)}

	// Count every kept physical operator (bottom-up via memoized
	// recursion; the structure is acyclic because enforcers take only
	// non-enforcers of their own group and all other operators reference
	// strictly earlier layers).
	for _, g := range m.Groups {
		for _, e := range g.Physical {
			if !cfg.keep(e) {
				continue
			}
			if err := s.countFast(e, &cfg); err != nil {
				return nil, err
			}
		}
	}

	// Root layout: each root operator covers a contiguous rank range in
	// declaration order; the prefix sums drive rank-to-operator
	// selection on every tier.
	fits := !cfg.forceWide
	var total64 uint64
	prefix64 := []uint64{0}
	var totalW []uint64
	prefixW := [][]uint64{nil} // prefixW[0] = 0
	var scratch [1]uint64
	for _, e := range m.Root.Physical {
		if !cfg.keep(e) {
			continue
		}
		info := s.info[e.ID]
		if info.isZero() {
			continue // cannot form a complete plan; covers no ranks
		}
		s.rootOps = append(s.rootOps, e)
		if fits && info.fits {
			var carry uint64
			total64, carry = bits.Add64(total64, info.n64, 0)
			fits = carry == 0
		} else {
			fits = false
		}
		prefix64 = append(prefix64, total64)
		totalW = wideAdd(totalW, info.wideCount(&scratch))
		prefixW = append(prefixW, totalW)
	}
	s.totalW = s.tab.put(totalW)
	s.prefixW = make([][]uint64, len(prefixW))
	for i, p := range prefixW {
		s.prefixW[i] = s.tab.put(p)
	}
	s.total = limbsToBig(s.totalW)
	if fits {
		s.fits = true
		s.total64, s.prefix64 = total64, prefix64
	}
	return s, nil
}

// candArena packs candidate lists into stable chunked backing arrays
// (the same mechanism as WideArena — see chunked in arena.go), so the
// unrank hot loop's cands[i][j] loads land in a handful of contiguous
// blocks instead of one heap object per slot.
type candArena struct {
	a chunked[*memo.Expr]
}

func (a *candArena) put(xs []*memo.Expr) []*memo.Expr { return a.a.put(xs, 512) }

func (a *candArena) memoryBytes() int64 { return int64(a.a.elems()) * 8 }

// slots materializes the candidate lists of one operator (Section 3.1)
// into the space's candidate arena. Enforcers draw from the
// non-enforcer operators of their own group with no ordering demand;
// everything else draws from each child group's operators filtered by
// the prefix-satisfaction test on delivered vs required orderings.
func (s *Space) slots(e *memo.Expr, cfg *config) [][]*memo.Expr {
	var scratch [64]*memo.Expr
	if e.IsEnforcer() {
		cands := scratch[:0]
		for _, c := range e.Group.NonEnforcers() {
			if cfg.keep(c) {
				cands = append(cands, c)
			}
		}
		return [][]*memo.Expr{s.cands.put(cands)}
	}
	out := make([][]*memo.Expr, len(e.Children))
	for i, cg := range e.Children {
		req := plan.RequiredOf(e, i)
		cands := scratch[:0]
		for _, c := range cg.Physical {
			if cfg.keep(c) && c.Delivered.Satisfies(req) {
				cands = append(cands, c)
			}
		}
		out[i] = s.cands.put(cands)
	}
	return out
}

// countFast is the production counting pass: N(v) = Π b_v(i) with
// b_v(i) = Σ N(w), run in overflow-checked uint64 with a wide-limb
// spill. A node (or a single slot) that overflows 64 bits switches to
// exact []uint64 accumulation seeded from the checked prefix run, so
// spaces of any size are counted exactly without math/big — and nodes
// (or slots) that fit keep their native tables for the fast lanes.
func (s *Space) countFast(e *memo.Expr, cfg *config) error {
	if s.info[e.ID] != nil {
		return nil
	}
	info := s.newInfo(e) // leaves have N=1 set below; set early is safe (acyclic)
	info.cands = s.slots(e, cfg)

	info.fits = true
	info.n64 = 1
	// The uint64 tables are carved from the space's limb arena: every
	// base and prefix-sum row of the whole space lands in a handful of
	// contiguous chunks, which is worth real latency on large memos
	// whose tables would otherwise scatter across the heap.
	info.b64 = s.tab.Alloc(len(info.cands))
	info.prefix64 = make([][]uint64, len(info.cands))
	var nW []uint64 // product accumulator once the node overflows
	var scratch [1]uint64
	for i, cands := range info.cands {
		var b64 uint64
		prefix64 := s.tab.Alloc(len(cands) + 1)[:1]
		slotFits := true
		var bW []uint64
		var prefixW [][]uint64
		for _, c := range cands {
			if err := s.countFast(c, cfg); err != nil {
				return err
			}
			ci := s.info[c.ID]
			if slotFits && ci.fits {
				sum, carry := bits.Add64(b64, ci.n64, 0)
				if carry == 0 {
					b64 = sum
					prefix64 = append(prefix64, b64)
					continue
				}
			}
			if slotFits {
				// Spill: seed the exact wide accumulators from the
				// checked uint64 prefix run, which is exact so far.
				slotFits = false
				prefixW = make([][]uint64, 0, len(cands)+1)
				for _, p := range prefix64 {
					prefixW = append(prefixW, wideFromU64(p))
				}
				bW = wideFromU64(b64)
			}
			bW = wideAdd(bW, ci.wideCount(&scratch))
			prefixW = append(prefixW, bW)
		}

		var baseW []uint64
		if slotFits {
			info.b64[i] = b64
			info.prefix64[i] = prefix64
		} else {
			frozen := make([][]uint64, len(prefixW))
			for k, p := range prefixW {
				frozen[k] = s.tab.put(p)
			}
			info.wideSlot(i, s.tab.put(bW), frozen)
			baseW = bW
		}

		// N(v) accumulation: checked uint64 while it lasts, exact wide
		// afterwards.
		if info.fits && slotFits {
			hi, lo := bits.Mul64(info.n64, b64)
			if hi == 0 {
				info.n64 = lo
				continue
			}
		}
		if info.fits {
			info.fits = false
			nW = wideFromU64(info.n64)
			info.n64 = 0
		}
		if baseW == nil {
			baseW = wideFromU64(b64)
		}
		nW = wideMul(nW, baseW)
	}
	if n := len(info.cands); n > 0 {
		// Freeze the per-slot reciprocals: the decomposition divides by
		// these bases on every unrank.
		info.div64 = make([]magicDiv, n)
		for i, b := range info.b64 {
			if b > 0 {
				info.div64[i] = newMagicDiv(b)
			}
		}
	}
	if !info.fits {
		info.nW = s.tab.put(nW)
	} else if cfg.forceWide {
		// The forced wide tier treats every node as wide so the wide
		// decomposer runs end to end; the uint64 slot tables stay — they
		// are the wide engine's own single-limb fast lane.
		info.nW = s.tab.put(wideFromU64(info.n64))
		info.fits = false
		info.n64 = 0
	}
	return nil
}

// newInfo hands out the next slab slot for an operator. The slab was
// sized to the kept-operator count, so append never reallocates and
// the returned pointer is stable; should an unexpected operator surface
// anyway, it falls back to a heap node rather than dangling the slab.
func (s *Space) newInfo(e *memo.Expr) *exprInfo {
	var info *exprInfo
	if len(s.slab) < cap(s.slab) {
		s.slab = append(s.slab, exprInfo{expr: e})
		info = &s.slab[len(s.slab)-1]
	} else {
		info = &exprInfo{expr: e}
	}
	s.info[e.ID] = info
	return info
}

// wideSlot freezes one overflowing slot's base and prefix table into
// the space's arena.
func (info *exprInfo) wideSlot(i int, bW []uint64, prefixW [][]uint64) {
	if info.bW == nil {
		info.bW = make([][]uint64, len(info.cands))
		info.prefixW = make([][][]uint64, len(info.cands))
	}
	info.bW[i] = bW
	info.prefixW[i] = prefixW
}

// wideFromU64 lifts a native value to canonical limbs.
func wideFromU64(v uint64) []uint64 {
	if v == 0 {
		return nil
	}
	return []uint64{v}
}

// Count returns N, the number of complete execution plans the space
// encodes. The returned value must not be mutated.
func (s *Space) Count() *big.Int { return s.total }

// Arithmetic names the tier serving the space — "uint64" or "wide" —
// the canonical label for exports, reports, and CLIs. On "uint64" the
// total N (and with it every base and prefix sum reachable during
// unranking) fits in 64 bits and the space was not forced onto the wide
// tier, so UnrankInto and SampleRanks are available and the unranker's
// root runs on native uint64; "wide" is the limb tier that serves every
// space beyond 2^64 (and any space a test forces onto it).
func (s *Space) Arithmetic() string {
	if s.fits {
		return "uint64"
	}
	return "wide"
}

// RankLimbs returns the number of 64-bit limbs a rank of this space
// occupies — the row stride of SampleRanksWideInto and the buffer size
// for UnrankWideInto callers (1 on the uint64 tier).
func (s *Space) RankLimbs() int { return max(len(s.totalW), 1) }

// CountFor returns N(v) for a specific operator — the number of plans
// rooted in it (Figure 3's per-operator annotations). Zero for operators
// filtered out of the space.
func (s *Space) CountFor(e *memo.Expr) *big.Int {
	if e.ID >= len(s.info) || s.info[e.ID] == nil {
		return new(big.Int)
	}
	info := s.info[e.ID]
	if info.fits {
		return new(big.Int).SetUint64(info.n64)
	}
	return limbsToBig(info.nW)
}
