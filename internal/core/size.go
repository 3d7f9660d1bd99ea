package core

import "unsafe"

// Rough per-object overheads used by MemoryFootprint. Exact sizeofs
// are not the point — the cache's byte accounting needs a consistent,
// monotone estimate of how much a counted space pins, dominated by the
// count tables this file walks precisely.
const (
	bigIntOverhead = 32  // big.Int header + word-slice header
	sliceOverhead  = 24  // slice header
	memoExprBytes  = 256 // memo.Expr with typical payload
	memoGroupBytes = 192 // memo.Group sans Exprs slices

	spaceBytes    = int64(unsafe.Sizeof(Space{}))
	opRecBytes    = int64(unsafe.Sizeof(opRec{}))
	candListBytes = int64(unsafe.Sizeof(candList{}))
	wideListBytes = int64(unsafe.Sizeof(wideList{}))
)

// MemoryFootprint estimates the resident bytes of the counted space:
// the MEMO it pins (groups and operators) plus the count tables (see
// tableBytes). Wide spaces charge their full prefix-sum storage, so the
// SpaceCache's byte-budget eviction prices a wide Q8+cross space
// honestly instead of assuming the uint64 layout.
func (s *Space) MemoryFootprint() int64 {
	n := s.tableBytes()
	if s.Memo != nil {
		st := s.Memo.Stats()
		n += int64(st.Groups)*memoGroupBytes +
			int64(st.LogicalOps+st.PhysicalOps)*memoExprBytes
	}
	return n
}

// tableBytes is the count tables' share of MemoryFootprint: the
// operator records, slots and ID index, each shared candidate list once
// (its record, operator indices, guide table and prefix sums), the
// root's guide table, and the limb arena that backs every count, base
// and prefix sum of either tier. The operator indices and every guide
// table share one slab (listOps), charged whole.
func (s *Space) tableBytes() int64 {
	n := spaceBytes
	n += int64(cap(s.ops)) * opRecBytes
	n += int64(cap(s.index)+cap(s.slots)+cap(s.rootOps)) * 4
	n += int64(cap(s.lists)) * candListBytes
	n += int64(s.listOps.elems()) * 4
	for _, l := range s.lists {
		// Wide rows are the only per-list allocations: their limbs live
		// in s.tab (counted once below); charge the headers.
		if l.wide != nil {
			n += wideListBytes + int64(cap(l.wide.prefix))*sliceOverhead
		}
	}
	n += int64(cap(s.wideN)) * sliceOverhead
	n += bigIntOverhead + int64(len(s.total.Bits()))*8
	n += int64(cap(s.prefix64)) * 8
	n += int64(cap(s.prefixW)) * sliceOverhead
	n += s.tab.MemoryBytes() // every limb: counts, bases, prefix sums
	return n
}
