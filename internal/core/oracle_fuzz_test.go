package core

import (
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/oracle"
)

// FuzzOracle is the tier-vs-oracle differential fuzzer. For a chain
// memo of joinLevels levels (2^(joinLevels+1) plans), prepared both on
// its native tier and forced onto the wide tier, Count must equal the
// oracle's, and Unrank/Rank must agree with the oracle on three ranks
// derived from seed: seed mod N, its mirror N-1-(seed mod N), and a
// uniform rank drawn from a generator seeded with seed. The seed corpus
// puts the count just below and at 2^63, 2^64, and 2^128, and the
// ranks on the 2^63 and 2^64 limb boundaries; `go test` runs it on
// every pass.
func FuzzOracle(f *testing.F) {
	for _, levels := range []uint16{0, 1, 5, 61, 62, 63, 126, 127} {
		for _, seed := range []uint64{0, 1<<63 - 1, 1 << 63, 1<<64 - 1, 0x9e3779b97f4a7c15} {
			f.Add(levels, seed)
		}
	}
	f.Fuzz(func(t *testing.T, joinLevels uint16, seed uint64) {
		m := chainMemo(int(joinLevels % 256))
		ref := oracle.New(m)
		n := ref.Count()
		r := new(big.Int).Mod(new(big.Int).SetUint64(seed), n)
		ranks := []*big.Int{
			r,
			new(big.Int).Sub(new(big.Int).Sub(n, big.NewInt(1)), r),
			new(big.Int).Rand(rand.New(rand.NewSource(int64(seed))), n),
		}
		for _, opts := range [][]Option{nil, {WithWideArithmetic()}} {
			s, err := Prepare(m, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if s.Count().Cmp(n) != 0 {
				t.Fatalf("%s tier counts %s plans, oracle %s", s.Arithmetic(), s.Count(), n)
			}
			var arena Arena
			for _, r := range ranks {
				agreeWithOracle(t, s, ref, r, &arena)
			}
		}
	})
}
