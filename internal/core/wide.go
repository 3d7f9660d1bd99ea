package core

import (
	"math/big"
	"math/bits"
	"strconv"
)

// This file is the wide-integer arithmetic tier: fixed-allocation
// arbitrary-precision naturals represented as little-endian []uint64
// limb slices, canonical form (no trailing zero limbs; zero = empty
// slice). It exists so spaces beyond 2^64 plans — Q8 with Cartesian
// products holds ~2.7·10^22 — can be counted, unranked, ranked, and
// sampled without math/big's per-operation heap churn: every temporary
// the hot paths need is carved from a reusable WideArena, so a warmed
// unrank or sample loop performs zero steady-state allocations.
//
// The operation set is exactly what the paper's bijection needs:
// comparison (rank-range selection), add/sub (prefix sums), mul
// (product-of-sums counting, rank reconstruction), and divmod (the
// mixed-radix decomposition of Section 3.3) with a single-limb fast
// lane and a Knuth Algorithm D general case. math/big appears only in
// the API-boundary conversions limbsToBig and bigToLimbs.

// WideArena is a reusable allocation buffer for limb slices: Alloc
// carves zeroed slices out of chunked backing arrays whose memory is
// never moved (a grown arena does not invalidate earlier slices), and
// Reset recycles all of it at once (see chunked in arena.go). The zero
// value is ready to use. A WideArena must not be shared across
// goroutines.
type WideArena struct {
	a chunked[uint64]
}

const wideArenaMinChunk = 64

// Alloc returns a zeroed limb slice of length n with stable backing.
func (a *WideArena) Alloc(n int) []uint64 { return a.a.alloc(n, wideArenaMinChunk) }

// put stores a canonical copy of x in the arena and returns it —
// how Prepare freezes count tables into one locality-friendly block.
func (a *WideArena) put(x []uint64) []uint64 { return a.a.put(x, wideArenaMinChunk) }

// Reset recycles the arena, invalidating every slice it handed out.
// After the first Reset the arena holds a single chunk sized to the
// high-water mark, so steady-state reuse allocates nothing.
func (a *WideArena) Reset() { a.a.reset() }

// MemoryBytes reports the arena's resident size, for footprint
// accounting.
func (a *WideArena) MemoryBytes() int64 { return int64(a.a.elems()) * 8 }

// wideNorm trims trailing zero limbs to canonical form.
func wideNorm(x []uint64) []uint64 {
	for len(x) > 0 && x[len(x)-1] == 0 {
		x = x[:len(x)-1]
	}
	return x
}

// WideNorm trims trailing zero limbs to canonical form — the exported
// helper callers of the flat batch API (SampleRanksWideInto) use to
// recover each fixed-stride row's canonical slice before handing it to
// UnrankWideInto.
func WideNorm(x []uint64) []uint64 { return wideNorm(x) }

// wideCmp compares canonical a and b: -1, 0, or +1.
func wideCmp(a, b []uint64) int {
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	for i := len(a) - 1; i >= 0; i-- {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	return 0
}

// wideToU64 extracts a canonical value that fits one limb.
func wideToU64(x []uint64) (uint64, bool) {
	switch len(x) {
	case 0:
		return 0, true
	case 1:
		return x[0], true
	}
	return 0, false
}

// wideAdd returns a+b as a fresh canonical slice (cold paths: counting).
func wideAdd(a, b []uint64) []uint64 {
	if len(a) < len(b) {
		a, b = b, a
	}
	out := make([]uint64, len(a)+1)
	var carry uint64
	for i := range a {
		var bi uint64
		if i < len(b) {
			bi = b[i]
		}
		out[i], carry = bits.Add64(a[i], bi, carry)
	}
	out[len(a)] = carry
	return wideNorm(out)
}

// wideSubInPlace computes a -= b in place (requires a >= b) and returns
// the canonical slice.
func wideSubInPlace(a, b []uint64) []uint64 {
	var borrow uint64
	for i := range a {
		var bi uint64
		if i < len(b) {
			bi = b[i]
		}
		a[i], borrow = bits.Sub64(a[i], bi, borrow)
	}
	return wideNorm(a)
}

// wideMul returns a*b as a fresh canonical slice (schoolbook; cold
// paths: counting and rank reconstruction, where operands stay small).
func wideMul(a, b []uint64) []uint64 {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	out := make([]uint64, len(a)+len(b))
	for i, x := range a {
		// out[i..i+len(b)] += x*b; x*y + carry + out[i+j] <= 2^128-1,
		// so the running high word never overflows.
		var carry uint64
		for j, y := range b {
			hi, lo := bits.Mul64(x, y)
			lo, c := bits.Add64(lo, carry, 0)
			hi += c
			lo, c = bits.Add64(lo, out[i+j], 0)
			hi += c
			out[i+j] = lo
			carry = hi
		}
		out[i+len(b)] = carry // untouched by earlier iterations
	}
	return wideNorm(out)
}

// wideDivModU64 divides x (canonical) by a single non-zero limb d in
// place: x becomes the quotient (caller re-normalizes via the returned
// slice) and the remainder is returned.
func wideDivModU64(x []uint64, d uint64) ([]uint64, uint64) {
	var rem uint64
	for i := len(x) - 1; i >= 0; i-- {
		x[i], rem = bits.Div64(rem, x[i], d)
	}
	return wideNorm(x), rem
}

// wideDivMod divides u by v (both canonical, v non-zero), carving the
// quotient, remainder, and normalization scratch from a. The returned
// slices are canonical; u is left unmodified. Single-limb divisors take
// the fast lane; multi-limb divisors run Knuth Algorithm D on 64-bit
// limbs (TAOCP vol. 2, 4.3.1), which the divmod fuzzer checks against
// math/big limb by limb.
func wideDivMod(u, v []uint64, a *WideArena) (q, r []uint64) {
	if wideCmp(u, v) < 0 {
		r = a.put(u)
		return nil, r
	}
	if len(v) == 1 {
		q = a.put(u)
		var rem uint64
		q, rem = wideDivModU64(q, v[0])
		if rem != 0 {
			r = a.Alloc(1)
			r[0] = rem
		}
		return q, r
	}

	n := len(v)
	m := len(u) - n // >= 0 since u >= v

	// D1: normalize so the divisor's top bit is set.
	s := uint(bits.LeadingZeros64(v[n-1]))
	vn := a.Alloc(n)
	un := a.Alloc(len(u) + 1)
	if s == 0 {
		copy(vn, v)
		copy(un, u)
	} else {
		for i := n - 1; i > 0; i-- {
			vn[i] = v[i]<<s | v[i-1]>>(64-s)
		}
		vn[0] = v[0] << s
		un[len(u)] = u[len(u)-1] >> (64 - s)
		for i := len(u) - 1; i > 0; i-- {
			un[i] = u[i]<<s | u[i-1]>>(64-s)
		}
		un[0] = u[0] << s
	}

	q = a.Alloc(m + 1)
	for j := m; j >= 0; j-- {
		// D3: estimate the quotient digit from the top limbs, then
		// refine with the second divisor limb until the estimate is at
		// most one too large (Knuth's bound needs the refinement even
		// in the saturated branch — without it a single D6 add-back
		// could not repair the excess).
		var qhat, rhat uint64
		var rhatOK bool
		if un[j+n] >= vn[n-1] {
			// The partial remainder is < b·v, so the top limb can only
			// equal vn[n-1]: the digit saturates at b-1 and
			// rhat = un[j+n]·b + un[j+n-1] - (b-1)·vn[n-1]
			//      = vn[n-1] + un[j+n-1], which may itself exceed b.
			qhat = ^uint64(0)
			var carry uint64
			rhat, carry = bits.Add64(vn[n-1], un[j+n-1], 0)
			rhatOK = carry == 0
		} else {
			qhat, rhat = bits.Div64(un[j+n], un[j+n-1], vn[n-1])
			rhatOK = true
		}
		for rhatOK {
			hi, lo := bits.Mul64(qhat, vn[n-2])
			if hi > rhat || (hi == rhat && lo > un[j+n-2]) {
				qhat--
				var carry uint64
				rhat, carry = bits.Add64(rhat, vn[n-1], 0)
				rhatOK = carry == 0
				continue
			}
			break
		}

		// D4: un[j..j+n] -= qhat * vn.
		var borrow uint64
		for i := 0; i < n; i++ {
			hi, lo := bits.Mul64(qhat, vn[i])
			t, b1 := bits.Sub64(un[j+i], borrow, 0)
			borrow = hi + b1 // hi <= 2^64-2, cannot overflow
			t, b2 := bits.Sub64(t, lo, 0)
			borrow += b2
			un[j+i] = t
		}
		t, underflow := bits.Sub64(un[j+n], borrow, 0)
		un[j+n] = t

		// D5/D6: the estimate was one too high — add the divisor back.
		if underflow != 0 {
			qhat--
			var carry uint64
			for i := 0; i < n; i++ {
				un[j+i], carry = bits.Add64(un[j+i], vn[i], carry)
			}
			un[j+n] += carry
		}
		q[j] = qhat
	}

	// D8: denormalize the remainder.
	r = un[:n]
	if s != 0 {
		for i := 0; i < n-1; i++ {
			r[i] = r[i]>>s | r[i+1]<<(64-s)
		}
		r[n-1] >>= s
	}
	return wideNorm(q), wideNorm(r)
}

// limbsToBig converts a canonical limb slice to a fresh big.Int
// (API-boundary use only; portable across 32- and 64-bit big.Word).
func limbsToBig(x []uint64) *big.Int {
	out := new(big.Int)
	var tmp big.Int
	for i := len(x) - 1; i >= 0; i-- {
		out.Lsh(out, 64)
		out.Or(out, tmp.SetUint64(x[i]))
	}
	return out
}

// bigToLimbs converts a non-negative big.Int into canonical limbs,
// reusing buf when it has capacity.
func bigToLimbs(x *big.Int, buf []uint64) []uint64 {
	words := x.Bits()
	if bits.UintSize == 64 {
		n := len(words)
		if cap(buf) < n {
			buf = make([]uint64, n)
		}
		buf = buf[:n]
		for i, w := range words {
			buf[i] = uint64(w)
		}
		return wideNorm(buf)
	}
	// 32-bit big.Word: pack pairs.
	n := (len(words) + 1) / 2
	if cap(buf) < n {
		buf = make([]uint64, n)
	}
	buf = buf[:n]
	for i := range buf {
		lo := uint64(words[2*i])
		var hi uint64
		if 2*i+1 < len(words) {
			hi = uint64(words[2*i+1])
		}
		buf[i] = hi<<32 | lo
	}
	return wideNorm(buf)
}

// AppendWideDecimal renders a canonical limb slice in base 10 into dst
// without any big.Int allocation: a one-limb value goes straight to
// strconv, and a wider one has 19 digits at a time peeled off by
// repeated division by 1e19 on a scratch copy carved from a. It is how
// the plan-space service serializes ranks on every tier.
func AppendWideDecimal(dst []byte, x []uint64, a *WideArena) []byte {
	switch len(x) {
	case 0:
		return append(dst, '0')
	case 1:
		return strconv.AppendUint(dst, x[0], 10)
	}
	const chunk = 1e19 // largest power of ten in a uint64
	work := a.put(x)
	var groups []uint64
	var stack [8]uint64 // 8 groups cover 152 digits before spilling
	groups = stack[:0]
	for len(work) > 0 {
		var rem uint64
		work, rem = wideDivModU64(work, chunk)
		groups = append(groups, rem)
	}
	// Most significant group without padding, the rest zero-padded.
	dst = appendUintPadded(dst, groups[len(groups)-1], false)
	for i := len(groups) - 2; i >= 0; i-- {
		dst = appendUintPadded(dst, groups[i], true)
	}
	return dst
}

func appendUintPadded(dst []byte, v uint64, pad bool) []byte {
	var buf [19]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if pad {
		for i > 0 {
			i--
			buf[i] = '0'
		}
	} else if i == len(buf) {
		i--
		buf[i] = '0'
	}
	return append(dst, buf[i:]...)
}

// selectByPrefixWide is selectByPrefix64's wide-limb analogue: the
// index k with prefix[k] <= r < prefix[k+1], by the same galloping +
// branch-minimized binary hybrid over canonical limb slices.
func selectByPrefixWide(prefix [][]uint64, r []uint64) int {
	n := len(prefix) - 1 // bucket count
	if n <= 4 {
		k := 0
		for k+1 < n && wideCmp(prefix[k+1], r) <= 0 {
			k++
		}
		return k
	}
	hi := 1
	for hi < n && wideCmp(prefix[hi], r) <= 0 {
		hi <<= 1
	}
	if hi > n {
		hi = n
	}
	base := hi >> 1
	cnt := hi - base
	for cnt > 1 {
		half := cnt >> 1
		if wideCmp(prefix[base+half], r) <= 0 {
			base += half
		}
		cnt -= half
	}
	return base
}
