package exec

import "repro/internal/data"

// HashBucket returns the bucket a hash join's table over n build rows
// gives the single-column key word w.
func HashBucket(n int, w uint64) int {
	h := &hashTable{rows: make([]data.Row, n), words: make([]uint64, n)}
	h.index(1)
	return h.bucket([]uint64{w})
}
