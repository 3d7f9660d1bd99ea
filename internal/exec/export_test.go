package exec

// HashBucket returns the bucket a hash join's table over n build rows
// gives the single-column key word w.
func HashBucket(n int, w uint64) int {
	h := &hashTable{k: 1, words: make([]uint64, n)}
	h.index()
	return h.bucket([]uint64{w})
}
