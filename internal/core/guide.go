package core

import (
	"math"
	"math/bits"
)

// guide picks the candidate a rank falls in — the k with
// prefix[k] <= r < prefix[k+1] that unranking asks of every candidate
// list and of the root (Section 3.3) — in constant expected time. It
// is Chen and Asau's cutpoint method (1974): the ranks [0, b) of a
// prefix row with n candidates and base b are cut into G buckets, G
// the least power of two >= n, by bucket(r) = hi64(r·m) with
// m = ⌊2^64·G/b⌋, which is monotone in r and below G for every r < b.
// at[t] is the last candidate whose first rank maps below bucket t, so
// it never passes the answer for a rank in bucket t, and a forward
// scan on prefix[k+1] <= r finishes the selection. n candidate starts
// spread over G >= n buckets, so the scan takes under two steps on
// average for a uniform rank.
//
// A base not larger than G would need m >= 2^64. m then saturates at
// 2^64-1, which maps rank r >= 1 to bucket r-1: the buckets index the
// ranks themselves.
//
// Rows of fewer than guideMin candidates carry no table (at == nil)
// and take the scan alone, at most one compare per candidate.
type guide struct {
	m  uint64
	at []int32
}

// guideMin is the least candidate count that gets a cutpoint table.
const guideMin = 3

// guideSize is the bucket count G of a row of n candidates: zero for
// rows that take the scan alone.
func guideSize(n int) int {
	if n < guideMin {
		return 0
	}
	return 1 << bits.Len(uint(n-1))
}

// newGuide builds the cutpoint table of prefix (prefix[0] = 0, n+1
// entries, base prefix[n] > 0) into at, which holds guideSize(n)
// entries (none: no table).
func newGuide(prefix []uint64, at []int32) guide {
	n, b := len(prefix)-1, prefix[len(prefix)-1]
	if len(at) == 0 || b == 0 {
		return guide{}
	}
	g := guide{m: math.MaxUint64, at: at}
	if G := uint64(len(at)); b > G {
		g.m, _ = bits.Div64(G, 0, b)
	}
	k := 0
	for t := range at {
		for k+1 < n && g.bucket(prefix[k+1]) < t {
			k++
		}
		at[t] = int32(k)
	}
	return g
}

func (g *guide) bucket(r uint64) int {
	hi, _ := bits.Mul64(r, g.m)
	return int(hi)
}

// pick returns the index k with prefix[k] <= r < prefix[k+1] for a
// rank r below the base prefix[len(prefix)-1], which ends the scan.
// With zero-count candidates (equal adjacent prefix entries) it is the
// last such k, the one that holds r.
func (g *guide) pick(prefix []uint64, r uint64) int {
	k := 0
	if g.at != nil {
		k = int(g.at[g.bucket(r)])
	}
	for prefix[k+1] <= r {
		k++
	}
	return k
}
