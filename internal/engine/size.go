package engine

import "repro/internal/opt"

// Per-layer fixed overheads. Exact sizeofs are not the point — the
// cache's byte accounting needs consistent, monotone estimates, and
// crucially the two layers must not double-count: the structure prices
// the memo and the counted space, the overlay prices only its own cost
// tables and optimal plan.
const (
	structureOverhead = 8 << 10 // bound query + bookkeeping
	overlayOverhead   = 2 << 10 // costing headers
	planNodeBytes     = 64      // one optimal-plan node with its child pointer
	aliasOverhead     = 128     // a statement-text alias's map slot and entry list slot
)

// SizeBytes estimates the resident bytes this StructureSpace pins while
// cached: the counted space's link structure and MEMO (the dominant
// term — see core.Space.MemoryFootprint) plus the canonical SQL and a
// fixed overhead for the query object. The SpaceCache's byte-budget
// eviction runs on this estimate; overlay bytes are reported apart
// (the /stats endpoint shows structure_bytes and overlay_bytes side by
// side).
func (ss *StructureSpace) SizeBytes() int64 {
	if ss == nil {
		return 0
	}
	var n int64 = structureOverhead
	n += int64(len(ss.Canonical))
	if ss.Space != nil {
		n += ss.Space.MemoryFootprint()
	}
	return n
}

// overlayBytes estimates the resident bytes of a cost overlay: the
// cardinality and local-cost tables, the optimal plan and its rank.
// The winner search's tables live only while the overlay is built, so
// they are not priced. It deliberately excludes the structure the
// overlay points to — that is priced by StructureSpace.SizeBytes — so
// the structure and overlay byte counters add up without
// double-counting.
func overlayBytes(c *opt.Costing) int64 {
	if c == nil {
		return 0
	}
	n := overlayOverhead + c.Tables.MemoryBytes()
	if c.Best != nil {
		n += int64(len(c.Best.Operators())) * planNodeBytes
	}
	if c.OptimalRank != nil {
		n += 32 + int64(len(c.OptimalRank.Bits()))*8
	}
	return n
}

// aliasBytes estimates the resident bytes of a statement-text alias:
// its text and a fixed overhead. They are charged to the entry the
// text resolves to, in the structure byte budget.
func aliasBytes(k textKey) int64 { return aliasOverhead + int64(len(k.text)) }
