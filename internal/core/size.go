package core

import "unsafe"

// Rough per-object overheads used by MemoryFootprint. Exact sizeofs
// are not the point — the cache's byte accounting needs a consistent,
// monotone estimate of how much a counted space pins, dominated by the
// per-operator count tables this file walks precisely.
const (
	bigIntOverhead = 32  // big.Int header + word-slice header
	sliceOverhead  = 24  // slice header
	memoExprBytes  = 256 // memo.Expr with typical payload
	memoGroupBytes = 192 // memo.Group sans Exprs slices

	exprInfoBytes = int64(unsafe.Sizeof(exprInfo{}))
	// slotBytes is one slot's share of the slot slabs: a candidate list
	// header, a prefix-sum row header and a base reciprocal.
	slotBytes = 2*sliceOverhead + int64(unsafe.Sizeof(magicDiv{}))
)

// MemoryFootprint estimates the resident bytes of the counted space:
// the MEMO it pins (groups and operators) plus the link structure the
// counting pass materialized in whichever tier serves it — candidate
// lists, uint64 base/prefix tables, and the wide tier's limb arena
// (which backs every wide count, base, and prefix-sum table). Wide
// spaces charge their full prefix-sum storage, so the SpaceCache's
// byte-budget eviction prices a wide Q8+cross space honestly instead of
// assuming the uint64 layout.
func (s *Space) MemoryFootprint() int64 {
	var n int64
	for _, info := range s.info {
		// Wide slot tables are the only per-node allocations: their
		// limbs live in s.tab (counted once below); charge the slice
		// headers that reference them.
		if info != nil && info.bW != nil {
			n += 2 * int64(len(info.bW)) * sliceOverhead
			for _, pw := range info.prefixW {
				n += int64(len(pw)) * sliceOverhead
			}
		}
	}
	n += sliceOverhead + int64(len(s.info))*8
	// Every node's own slice headers live in its slab entry; its
	// per-slot headers and reciprocals in the slot slabs.
	n += int64(cap(s.slab)) * exprInfoBytes
	n += int64(s.slots.n) * slotBytes
	n += s.cands.memoryBytes()
	n += sliceOverhead + int64(len(s.rootOps))*8
	n += bigIntOverhead + int64(len(s.total.Bits()))*8
	n += sliceOverhead + int64(len(s.prefix64))*8
	n += int64(len(s.prefixW)) * sliceOverhead
	n += s.tab.MemoryBytes() // every wide limb: counts, bases, prefix sums

	if s.Memo != nil {
		st := s.Memo.Stats()
		n += int64(st.Groups)*memoGroupBytes +
			int64(st.LogicalOps+st.PhysicalOps)*memoExprBytes
	}
	return n
}
