package core

// chunked is the shared chunked-arena mechanism behind WideArena and
// the candidate lists' operator indices (Space.listOps): carve slices
// out of backing chunks whose memory never moves (growing the arena
// does not invalidate earlier slices), with geometric chunk growth and
// an O(1) reset. One implementation, two
// element types — the carve and growth logic must not diverge.
type chunked[T any] struct {
	chunks [][]T
	used   int // elements used in the active (last) chunk
	total  int // capacity across all chunks
}

// alloc returns a zeroed slice of length n with stable backing;
// minChunk bounds the smallest chunk ever allocated.
func (a *chunked[T]) alloc(n, minChunk int) []T {
	if n == 0 {
		return nil
	}
	if len(a.chunks) == 0 || a.used+n > len(a.chunks[len(a.chunks)-1]) {
		size := minChunk
		if a.total > size {
			size = a.total // geometric growth: each chunk doubles capacity
		}
		if n > size {
			size = n
		}
		a.chunks = append(a.chunks, make([]T, size))
		a.total += size
		a.used = 0
	}
	c := a.chunks[len(a.chunks)-1]
	s := c[a.used : a.used+n : a.used+n]
	a.used += n
	var zero T
	for i := range s {
		s[i] = zero
	}
	return s
}

// put stores a copy of xs in the arena and returns it.
func (a *chunked[T]) put(xs []T, minChunk int) []T {
	if len(xs) == 0 {
		return nil
	}
	s := a.alloc(len(xs), minChunk)
	copy(s, xs)
	return s
}

// reset recycles the arena, invalidating every slice it handed out.
// After the first reset the arena holds a single chunk sized to the
// high-water mark, so steady-state reuse allocates nothing.
func (a *chunked[T]) reset() {
	if len(a.chunks) > 1 {
		a.chunks = [][]T{make([]T, a.total)}
	}
	a.used = 0
}

// elems reports the arena's total element capacity, for footprint
// accounting.
func (a *chunked[T]) elems() int { return a.total }
