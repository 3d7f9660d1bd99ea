package core

import (
	"math"
	"math/big"
	"math/bits"
	"math/rand"
	"testing"
)

// linearSelect is the reference selection: the last k with
// prefix[k] <= r, scanning from the first candidate.
func linearSelect(prefix []uint64, r uint64) int {
	k := 0
	for k+1 < len(prefix)-1 && prefix[k+1] <= r {
		k++
	}
	return k
}

// prefixOf returns the prefix row of counts, or nil when the base
// overflows uint64 or is zero (no rank to select).
func prefixOf(counts []uint64) []uint64 {
	prefix := make([]uint64, len(counts)+1)
	for i, c := range counts {
		var carry uint64
		prefix[i+1], carry = bits.Add64(prefix[i], c, 0)
		if carry != 0 {
			return nil
		}
	}
	if prefix[len(counts)] == 0 {
		return nil
	}
	return prefix
}

// checkGuided compares guided selection over prefix with linearSelect:
// on every rank when the base is small, else on every candidate's first
// and last rank, every bucket's first rank and its predecessor, and
// evenly spread ranks.
func checkGuided(t *testing.T, prefix []uint64) {
	t.Helper()
	n, b := len(prefix)-1, prefix[len(prefix)-1]
	at := make([]int32, guideSize(n))
	g := newGuide(prefix, at)
	if n >= guideMin && g.at == nil {
		t.Fatalf("%d candidates (base %d) got no guide", n, b)
	}
	check := func(r uint64) {
		if r >= b {
			return
		}
		if got, want := g.pick(prefix, r), linearSelect(prefix, r); got != want {
			t.Fatalf("%d candidates, base %d, rank %d: guided %d, linear %d", n, b, r, got, want)
		}
	}
	if b <= 1<<14 {
		for r := uint64(0); r < b; r++ {
			check(r)
		}
		return
	}
	for _, p := range prefix {
		check(p)
		check(p - 1)
	}
	two64 := new(big.Int).Lsh(big.NewInt(1), 64)
	m := new(big.Int).SetUint64(g.m)
	for tb := 1; tb < len(at); tb++ {
		// The first rank of bucket tb: ⌈tb·2^64/m⌉.
		first := new(big.Int).Mul(big.NewInt(int64(tb)), two64)
		first.Add(first, new(big.Int).Sub(m, big.NewInt(1)))
		first.Quo(first, m)
		if first.IsUint64() {
			check(first.Uint64())
			check(first.Uint64() - 1)
		}
	}
	step := b/257 + 1
	for r := uint64(0); r < b-step; r += step {
		check(r)
	}
	check(b - 1)
}

// TestGuidedSelect compares guided selection with the linear reference
// over adversarial prefix rows: zero-count candidates, one candidate
// holding nearly all the mass, bases not larger than the bucket count,
// bases near 2^64, and 1 to 1000 candidates. The wide tier's
// selectByPrefixWide is checked against the same reference.
func TestGuidedSelect(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var rows [][]uint64
	add := func(counts []uint64) {
		if p := prefixOf(counts); p != nil {
			rows = append(rows, p)
		}
	}
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 31, 64, 65, 333, 1000} {
		// Random small counts, zeros included.
		counts := make([]uint64, n)
		for i := range counts {
			counts[i] = uint64(rng.Intn(5))
		}
		add(counts)

		// All mass on one candidate, every other candidate empty.
		for _, at := range []int{0, n / 2, n - 1} {
			counts := make([]uint64, n)
			counts[at] = 1 + uint64(rng.Intn(100))
			add(counts)
		}

		// One candidate holding nearly all the mass.
		counts = make([]uint64, n)
		for i := range counts {
			counts[i] = 1
		}
		counts[rng.Intn(n)] = 1 << 40
		add(counts)

		// Base not larger than the bucket count: a few unit candidates
		// among empty ones.
		counts = make([]uint64, n)
		for i := 0; i < max(1, n/4); i++ {
			counts[rng.Intn(n)] = 1
		}
		add(counts)

		// Bases near 2^64: even shares of 2^64-1, the last one taking
		// the remainder, and random large counts.
		counts = make([]uint64, n)
		share := math.MaxUint64 / uint64(n)
		for i := range counts {
			counts[i] = share
		}
		counts[n-1] += math.MaxUint64 - share*uint64(n)
		add(counts)
		counts = make([]uint64, n)
		for i := range counts {
			counts[i] = rng.Uint64() / uint64(n)
		}
		add(counts)

		// Empty candidates at both ends around random counts.
		counts = make([]uint64, n+4)
		for i := 2; i < n+2; i++ {
			counts[i] = uint64(rng.Intn(1000))
		}
		add(counts)
	}
	for trial := 0; trial < 200; trial++ {
		counts := make([]uint64, 1+rng.Intn(1000))
		for i := range counts {
			if rng.Intn(3) > 0 {
				counts[i] = uint64(rng.Intn(1 << uint(rng.Intn(20))))
			}
		}
		add(counts)
	}
	for _, prefix := range rows {
		checkGuided(t, prefix)
	}

	// The wide analogue agrees with the same reference.
	for trial := 0; trial < 500; trial++ {
		counts := make([]uint64, 1+rng.Intn(40))
		for i := range counts {
			counts[i] = uint64(rng.Intn(5)) // zeros allowed: empty candidates
			if trial%3 == 0 {
				counts[i] = uint64(rng.Intn(1000))
			}
		}
		prefix := prefixOf(counts)
		if prefix == nil {
			continue
		}
		wp := make([][]uint64, len(prefix))
		for i, p := range prefix {
			wp[i] = wideFromU64(p)
		}
		for r := uint64(0); r < prefix[len(prefix)-1]; r++ {
			if got, want := selectByPrefixWide(wp, wideFromU64(r)), linearSelect(prefix, r); got != want {
				t.Fatalf("wide prefix %v rank %d: %d, linear %d", prefix, r, got, want)
			}
		}
	}
}

// FuzzGuidedSelect builds a prefix row from the input — counts cycled
// from raw and shifted left, plus heavy added to one candidate — and
// compares guided selection with the linear reference (checkGuided).
// Rows whose base overflows uint64 or is zero are skipped.
func FuzzGuidedSelect(f *testing.F) {
	f.Add([]byte{1, 0, 3}, uint16(7), uint8(0), uint64(0))
	f.Add([]byte{0}, uint16(999), uint8(0), uint64(5))             // one candidate holds all the mass
	f.Add([]byte{1, 0, 0, 0}, uint16(1000), uint8(0), uint64(0))   // base <= bucket count
	f.Add([]byte{255}, uint16(1), uint8(56), uint64(1<<63))        // base near 2^64, one candidate
	f.Add([]byte{1, 2}, uint16(511), uint8(53), uint64(0))         // bases near 2^64
	f.Add([]byte{}, uint16(2), uint8(0), uint64(math.MaxUint64))   // the largest base
	f.Add([]byte{0, 1, 0, 0, 9}, uint16(64), uint8(40), uint64(3)) // zeros among large counts
	f.Fuzz(func(t *testing.T, raw []byte, n uint16, shift uint8, heavy uint64) {
		counts := make([]uint64, int(n)%1000+1)
		if len(raw) > 0 {
			for i := range counts {
				counts[i] = uint64(raw[i%len(raw)]) << (shift % 64)
			}
		}
		counts[heavy%uint64(len(counts))] += heavy
		if prefix := prefixOf(counts); prefix != nil {
			checkGuided(t, prefix)
		}
	})
}
