// Package core implements the paper's contribution (Section 3): counting
// the execution plans encoded in a MEMO, unranking integers into plans,
// ranking plans back into integers, exhaustive enumeration, and uniform
// random sampling.
//
// The key idea is a bijection between 0..N-1 and the N plans of the
// space. After optimization the MEMO is frozen; Prepare materializes, for
// every physical operator v and child slot i, the list of candidate child
// operators w(v)[i] — the operators of the child's group whose delivered
// ordering satisfies what v requires of that slot (Section 3.1). The list
// depends only on the child group and that ordering, so the count table
// holds one list per distinct (child group, required ordering), shared by
// every slot that asks for it, and links everything by index: each
// operator is a flat record whose slots name lists, and each list names
// its candidates as operator indices beside their prefix sums. Counting
// is then a bottom-up product-of-sums (Section 3.2):
//
//	b_v(i) = Σ_j N(w(v)[i][j])      alternatives for child i
//	B_v(k) = Π_{i<=k} b_v(i)        combined choices of first k children
//	N(v)   = 1 if v is a leaf, else B_v(|v|)
//	N      = Σ_{v in root group} N(v)
//
// and unranking decomposes a rank into a root-operator choice plus one
// sub-rank per child slot in the mixed-radix system with digit bases
// b_v(i) (Section 3.3). Each choice selects the candidate whose range
// of cumulative counts holds the sub-rank; a cutpoint guide table per
// list whose sums fit uint64, and one for the root, make that one
// multiply-high, one load and a short forward scan (guide.go). A
// list's key is also the key of the optimizer's
// winner, so Cheapest runs the winner search as the same fold with
// (min, combine) in place of (sum, product).
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

	"repro/internal/algebra"
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

// opRec is one kept physical operator, a flat record the unrank lanes
// read by index: the operator itself (which they only store into plan
// nodes), its count N(v), and its child slots
// Space.slots[first : first+nslot], each the index of the shared
// candidate list that slot draws from.
type opRec struct {
	expr  *memo.Expr
	n64   uint64 // N(v) when fits
	first int32  // first slot in Space.slots
	nslot int32  // slot count (see slotCount)
	wide  int32  // N(v) is Space.wideN[wide] when !fits
	// fits means the operator's count and its entire subtree fit in 64
	// bits (while N(v) > 0 every base divides it and every prefix sum
	// is bounded by a base, so its lists fit too), so the native lanes
	// serve it.
	fits bool
}

// candList is one candidate list w(v)[i] of Section 3.1. The list
// depends only on the child group and the ordering v requires of it, so
// the space stores it once per distinct (child group, required
// ordering) and every slot asking for it names it by index. ops holds
// the group's kept operators whose delivered ordering satisfies the
// requirement (for an enforcer's slot, its own group's non-enforcers),
// as operator indices in group order.
type candList struct {
	ops []int32
	// prefix[j] = Σ_{k<j} N(ops[k]), so prefix[len(ops)] = b, the
	// slot's base b_v(i); prefix, b and div are valid when wide is nil,
	// i.e. when the list's sums fit uint64.
	prefix []uint64
	b      uint64
	div    magicDiv // reciprocal of b (set when b > 0)
	guide  guide    // selects a rank's candidate in prefix (set when b > 0)
	wide   *wideList
}

// wideList holds the base and prefix sums of a list whose sums overflow
// uint64, as canonical limbs carved from the space's arena.
type wideList struct {
	b      []uint64
	prefix [][]uint64
}

// Space is a frozen, counted search space. It is immutable after Prepare
// and safe for concurrent Unrank/Rank calls; create one Sampler per
// goroutine for sampling.
type Space struct {
	Memo *memo.Memo

	ops     []opRec        // every kept physical operator, in group order
	index   []int32        // memo.Expr.ID -> operator index + 1 (0: not in the space)
	slots   []int32        // every operator's child slots, as candidate list indices
	lists   []candList     // one per distinct (child group, required ordering)
	listOps chunked[int32] // backing store of every list's operator indices and guide tables
	wideN   [][]uint64     // N(v) of the operators whose count overflows uint64
	rootOps []int32        // root operators that cover ranks, in rank order

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
	guide64  guide // selects a rank's root operator in prefix64
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
	maxID, maxGroup, kept, nslots, widest := 0, 0, 0, 0, 0
	for _, g := range m.Groups {
		maxGroup = max(maxGroup, g.ID)
		widest = max(widest, len(g.Physical))
		for _, e := range g.Exprs {
			maxID = max(maxID, e.ID)
		}
		for _, e := range g.Physical {
			if cfg.keep(e) {
				kept++
				nslots += slotCount(e)
			}
		}
	}
	// First pass: every kept operator gets its index and its slots, and
	// each slot the index of its candidate list, found by key, so lists
	// can name operators before they are counted and the list table is
	// allocated once at its final size.
	s := &Space{Memo: m, ops: make([]opRec, 0, kept), index: make([]int32, maxID+1), slots: make([]int32, nslots)}
	b := builder{
		s: s, cfg: &cfg,
		head:    make([]int32, maxGroup+1),
		keys:    make([]listKey, 0, nslots),
		state:   make([]uint8, kept),
		scratch: make([]int32, 0, widest),
	}
	first := int32(0)
	for _, g := range m.Groups {
		for _, e := range g.Physical {
			if !cfg.keep(e) {
				continue
			}
			k, n := int32(len(s.ops)), int32(slotCount(e))
			s.ops = append(s.ops, opRec{expr: e, first: first, nslot: n})
			s.index[e.ID] = k + 1
			for i := int32(0); i < n; i++ {
				s.slots[first+i] = b.key(k, i)
			}
			first += n
		}
	}
	s.lists = make([]candList, len(b.keys))

	// The list slab (listOps) holds every list's operator indices, each
	// followed by its guide table, and the root's guide table. Sized
	// exactly here, it is one allocation with no spare capacity.
	b.slab = guideSize(len(m.Root.Physical))
	for li := range b.keys {
		n := len(b.candidates(int32(li)))
		b.slab += n + guideSize(n)
	}

	// Second pass: count every kept operator (bottom-up via memoized
	// recursion, building each list on first use; the structure is
	// acyclic because enforcers take only non-enforcers of their own
	// group and all other operators reference strictly earlier layers).
	for k := range s.ops {
		if err := b.countOp(int32(k)); err != nil {
			return nil, err
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
		k, ok := s.opOf(e)
		if !ok {
			continue
		}
		n := s.count(k, &scratch)
		if len(n) == 0 {
			continue // cannot form a complete plan; covers no ranks
		}
		s.rootOps = append(s.rootOps, k)
		if op := &s.ops[k]; fits && op.fits {
			var carry uint64
			total64, carry = bits.Add64(total64, op.n64, 0)
			fits = carry == 0
		} else {
			fits = false
		}
		prefix64 = append(prefix64, total64)
		totalW = wideAdd(totalW, n)
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
		s.guide64 = newGuide(prefix64, s.listOps.alloc(guideSize(len(s.rootOps)), b.slab))
	}
	return s, nil
}

// slotCount is the number of child slots an operator's tables have: one
// for an enforcer (its own group's non-enforcers), else one per child.
func slotCount(e *memo.Expr) int {
	if e.IsEnforcer() {
		return 1
	}
	return len(e.Children)
}

// opOf returns the index of e's operator record, and false when e is
// not an operator of this space (filtered out, logical, or from another
// memo).
func (s *Space) opOf(e *memo.Expr) (int32, bool) {
	if e.ID < 0 || e.ID >= len(s.index) {
		return 0, false
	}
	k := s.index[e.ID] - 1
	if k < 0 || s.ops[k].expr != e {
		return 0, false
	}
	return k, true
}

// count returns N(v) of operator k as canonical limbs (valid on the
// uint64 and wide tiers). The returned slice must not be mutated.
func (s *Space) count(k int32, scratch *[1]uint64) []uint64 {
	op := &s.ops[k]
	if !op.fits {
		return s.wideN[op.wide]
	}
	if op.n64 == 0 {
		return nil
	}
	scratch[0] = op.n64
	return scratch[:1]
}

// builder holds Prepare's counting state: the key of each candidate
// list and which operators are counted.
type builder struct {
	s   *Space
	cfg *config

	// head[g] is 1 + the index of group g's most recent candidate list
	// (0: none yet); keys[l] names the slot that first asked for list l
	// and, through next, the group's earlier lists. A group is asked for
	// only a few orderings, so a scan with Ordering.Equal finds a key.
	head []int32
	keys []listKey

	state   []uint8 // per operator: unvisited, counting, counted
	scratch []int32 // one list's operator indices while it is filtered
	slab    int     // the list slab's exact size (see Prepare)
}

// listKey identifies a candidate list by the first slot that asked for
// it (slot i of operator op); see slotKey.
type listKey struct {
	op, slot int32
	next     int32 // 1 + the index of the group's previous list
}

const (
	unvisited uint8 = iota
	counting
	counted
)

// slotKey is what slot i of e draws from: the child group, the
// ordering required of it (nil: any), and whether the slot is an
// enforcer's, which draws its own group's non-enforcers. The candidate
// list depends on nothing else.
func slotKey(e *memo.Expr, i int32) (g *memo.Group, req algebra.Ordering, enforcer bool) {
	if e.IsEnforcer() {
		return e.Group, nil, true
	}
	return e.Children[i], plan.RequiredOf(e, int(i)), false
}

// key returns the index of the candidate list slot i of operator k
// draws from, registering a new key on first use.
func (b *builder) key(k, i int32) int32 {
	ops := b.s.ops
	g, req, enforcer := slotKey(ops[k].expr, i)
	for l := b.head[g.ID]; l != 0; l = b.keys[l-1].next {
		have := &b.keys[l-1]
		if _, r, enf := slotKey(ops[have.op].expr, have.slot); enf == enforcer && r.Equal(req) {
			return l - 1
		}
	}
	b.keys = append(b.keys, listKey{op: k, slot: i, next: b.head[g.ID]})
	b.head[g.ID] = int32(len(b.keys))
	return int32(len(b.keys) - 1)
}

// countOp is the production counting pass for one operator:
// N(v) = Π b_v(i), run in overflow-checked uint64 with a wide-limb
// spill. A node that overflows 64 bits switches to exact []uint64
// accumulation seeded from the checked prefix run, so spaces of any
// size are counted exactly without math/big — and nodes that fit keep
// their native tables for the fast lanes.
func (b *builder) countOp(k int32) error {
	switch b.state[k] {
	case counted:
		return nil
	case counting:
		return fmt.Errorf("core: operator %s is its own descendant", b.s.ops[k].expr.Name())
	}
	b.state[k] = counting
	s := b.s
	op := &s.ops[k] // s.ops never grows after the first pass
	fits, n64 := true, uint64(1)
	var nW []uint64 // product accumulator once the node overflows
	for _, li := range s.slots[op.first : op.first+op.nslot] {
		l := &s.lists[li]
		if !l.built() {
			if err := b.build(li); err != nil {
				return err
			}
		}
		// N(v) accumulation: checked uint64 while it lasts, exact wide
		// afterwards.
		if fits && l.wide == nil {
			hi, lo := bits.Mul64(n64, l.b)
			if hi == 0 {
				n64 = lo
				continue
			}
		}
		if fits {
			fits = false
			nW = wideFromU64(n64)
			n64 = 0
		}
		base := wideFromU64(l.b)
		if l.wide != nil {
			base = l.wide.b
		}
		nW = wideMul(nW, base)
	}
	if fits && b.cfg.forceWide {
		// The forced wide tier treats every node as wide so the wide
		// decomposer runs end to end; lists that fit keep their uint64
		// tables — they are the wide engine's own single-limb fast lane.
		fits, nW, n64 = false, wideFromU64(n64), 0
	}
	op.fits, op.n64 = fits, n64
	if !fits {
		op.wide = int32(len(s.wideN))
		s.wideN = append(s.wideN, s.tab.put(nW))
	}
	b.state[k] = counted
	return nil
}

// built reports whether the counting pass has filled the list: a list
// that fits always holds its prefix row (at least the leading 0), one
// that overflows its wide rows.
func (l *candList) built() bool { return l.prefix != nil || l.wide != nil }

// candidates returns the operators of candidate list li (Section 3.1)
// in b.scratch, as operator indices in group order. An enforcer's list
// holds the non-enforcer operators of its own group; every other list
// holds the child group's operators whose delivered ordering satisfies
// the required one (the prefix-satisfaction test).
func (b *builder) candidates(li int32) []int32 {
	s := b.s
	key := b.keys[li]
	g, req, enforcer := slotKey(s.ops[key.op].expr, key.slot)
	ops := b.scratch[:0]
	for _, c := range g.Physical {
		k, ok := s.opOf(c)
		if ok && (enforcer && !c.IsEnforcer() || !enforcer && c.Delivered.Satisfies(req)) {
			ops = append(ops, k)
		}
	}
	return ops
}

// build fills candidate list li. The base and prefix sums are counted
// in overflow-checked uint64; a list whose sums overflow spills to
// exact limbs seeded from the checked prefix run.
func (b *builder) build(li int32) error {
	s := b.s
	ops := b.candidates(li)
	// The list's guide table follows its operator indices in one carve,
	// so the selection's table load brings in the indices it reads next.
	// A list whose sums overflow uint64 leaves the table unused.
	idx := s.listOps.alloc(len(ops)+guideSize(len(ops)), b.slab)
	copy(idx, ops)
	ops, at := idx[:len(ops):len(ops)], idx[len(ops):]

	// The prefix row is carved from the space's limb arena: every list
	// of the whole space lands in a handful of contiguous chunks.
	var sum uint64
	prefix := s.tab.Alloc(len(ops) + 1)[:1]
	listFits := true
	var (
		sumW    []uint64
		prefixW [][]uint64
		scratch [1]uint64
	)
	for _, c := range ops {
		if err := b.countOp(c); err != nil {
			return err
		}
		if co := &s.ops[c]; listFits && co.fits {
			next, carry := bits.Add64(sum, co.n64, 0)
			if carry == 0 {
				sum = next
				prefix = append(prefix, sum)
				continue
			}
		}
		if listFits {
			// Spill: seed the exact wide accumulators from the checked
			// uint64 prefix run, which is exact so far.
			listFits = false
			prefixW = make([][]uint64, 0, len(ops)+1)
			for _, p := range prefix {
				prefixW = append(prefixW, wideFromU64(p))
			}
			sumW = wideFromU64(sum)
		}
		sumW = wideAdd(sumW, s.count(c, &scratch))
		prefixW = append(prefixW, sumW)
	}

	l := &s.lists[li]
	l.ops = ops
	if listFits {
		l.prefix, l.b = prefix, sum
		if sum > 0 {
			l.div = newMagicDiv(sum)
			l.guide = newGuide(prefix, at)
		}
		return nil
	}
	frozen := make([][]uint64, len(prefixW))
	for k, p := range prefixW {
		frozen[k] = s.tab.put(p)
	}
	l.wide = &wideList{b: s.tab.put(sumW), prefix: frozen}
	return nil
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
	k, ok := s.opOf(e)
	if !ok {
		return new(big.Int)
	}
	var scratch [1]uint64
	return limbsToBig(s.count(k, &scratch))
}
