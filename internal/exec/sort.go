package exec

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/algebra"
	"repro/internal/data"
)

// sortIter materializes its input and emits it ordered. It implements
// the Sort enforcer and the self-sorting Result. A Result's sort keys may
// be computed output columns (ORDER BY revenue over SUM(...)), so its
// sortIter keeps each input row followed by the projections' values
// over it, sorts on that extended row and emits the projections only.
// The sorted buffer is cached across re-Opens (the input is
// deterministic within one execution), so a nested-loop parent pays the
// sort once.
type sortIter struct {
	opNode
	child  Iterator
	keyPos []int
	desc   []bool
	strs   *data.Strings
	proj   []evalFunc // the self-sorting Result's projections; nil for Sort

	rows   []data.Row
	loaded bool
	pos    int
}

// newSortIter returns a sortIter ordering child's rows by order. in is
// the schema of the rows it keeps: the child's columns followed by the
// columns proj computes.
func newSortIter(child Iterator, in schema, order algebra.Ordering, strs *data.Strings, proj []evalFunc) (Iterator, error) {
	keyPos := make([]int, len(order))
	desc := make([]bool, len(order))
	for i, oc := range order {
		p := in.pos(oc.Col)
		if p < 0 {
			return nil, fmt.Errorf("exec: sort key #%d not present in input", oc.Col)
		}
		keyPos[i] = p
		desc[i] = oc.Desc
	}
	return &sortIter{child: child, keyPos: keyPos, desc: desc, strs: strs, proj: proj}, nil
}

func (s *sortIter) Open() error {
	s.pos = 0
	if err := s.enter(); err != nil {
		return err
	}
	if s.loaded {
		return nil
	}
	var err error
	if s.rows, err = load(s.child, s.rows, s.proj); err != nil {
		return err
	}
	if err := sortRows(s.rows, s.keyPos, s.desc, s.strs); err != nil {
		return err
	}
	s.loaded = true
	return nil
}

func (s *sortIter) Next() (data.Row, bool, error) {
	if s.pos >= len(s.rows) {
		return nil, false, nil
	}
	row := s.rows[s.pos]
	s.pos++
	if err := s.emit(); err != nil {
		return nil, false, err
	}
	if n := len(s.proj); n > 0 {
		row = row[len(row)-n:]
	}
	return row, true, nil
}

func (s *sortIter) Close() error {
	// The child is normally closed after materialization, but an error
	// mid-load leaves it open — cascade unconditionally.
	err := s.child.Close()
	s.leave()
	return err
}

// sortRows stably sorts rows by the given key positions and directions,
// strings by their text in strs. NULLs sort first on ascending keys
// (matching data.Compare), last on descending ones.
//
// It sorts row indices, with the original index as the last key, which
// is exactly a stable sort's order at O(n log n), and then permutes the
// rows in place. decorate first writes every key as an order-preserving
// word. When a buffer's keys fit 32 bits of rank, pack folds each row's
// words and index into one word, and sortPacked radix-sorts those words
// on their rank bits; otherwise the comparator reads the words, never a
// row. Keys without such words (a position that mixes ints and floats,
// which data.Compare orders through a lossy float64 comparison, or a
// NaN, which it orders partially) are compared with data.Compare by
// slices.SortStableFunc, the insertion and symmerge sort the sort
// package's stable sorts share, which keeps their order even where the
// comparison is not transitive.
func sortRows(rows []data.Row, keyPos []int, desc []bool, strs *data.Strings) error {
	if len(rows) < 2 {
		return nil
	}
	keys, err := decorate(rows, keyPos, desc, strs)
	if err != nil {
		return err
	}
	if space, ok := keys.pack(); ok {
		sortPacked(keys.words, space)
		for i := range keys.words {
			keys.words[i] &= 1<<32 - 1
		}
		permute(rows, keys.words)
		return nil
	}
	perm := make([]int32, len(rows))
	for i := range perm {
		perm[i] = int32(i)
	}
	if keys == nil {
		slices.SortStableFunc(perm, func(a, b int32) int {
			return compareRows(rows[a], rows[b], keyPos, desc, strs)
		})
	} else {
		slices.SortFunc(perm, keys.compare)
	}
	permute(rows, perm)
	return nil
}

// compareRows orders a before b as the sort does, through data.Compare.
// decorate has ruled out the pairs it cannot compare.
func compareRows(a, b data.Row, keyPos []int, desc []bool, strs *data.Strings) int {
	for k, p := range keyPos {
		c, _ := data.Compare(strs, a[p], b[p])
		if c == 0 {
			continue
		}
		if desc[k] {
			return -c
		}
		return c
	}
	return 0
}

// sortKeys holds a sort buffer's keys as flat, order-preserving words:
// k per row, row-major, so that comparing two rows' keys compares
// unsigned words.
//   - ints, dates and bools: the payload with its sign bit flipped;
//   - floats: sign-magnitude flipped, -0 folded into 0;
//   - strings: the rank of their text among the buffer's distinct codes;
//   - a descending key: the complement.
//
// A NULL key is flagged in nulls, which stays nil when no key is NULL.
type sortKeys struct {
	k     int
	words []uint64
	nulls []uint64 // bitmap over words
	desc  []bool
}

// decorate checks that data.Compare orders every key position of rows
// and returns the decorated keys, or nil when data.Compare must compare
// them. It reports the first pair data.Compare rejects, scanning
// positions in order and rows in buffer order, so the error does not
// depend on the sort's comparison order.
func decorate(rows []data.Row, keyPos []int, desc []bool, strs *data.Strings) (*sortKeys, error) {
	exact := true
	for _, p := range keyPos {
		var first data.Value // the position's first non-NULL key
		ints, floats := false, false
		for _, r := range rows {
			v := r[p]
			switch v.K {
			case data.KindNull:
				continue
			case data.KindInt:
				ints = true
			case data.KindFloat:
				floats = true
				if f := v.Float(); f != f {
					exact = false
				}
			}
			if first.IsNull() {
				first = v
			}
			if !orderable(strs, first, v) {
				_, err := data.Compare(strs, first, v)
				return nil, err
			}
		}
		exact = exact && !(ints && floats)
	}
	if !exact {
		return nil, nil
	}

	k, n := len(keyPos), len(rows)
	s := &sortKeys{k: k, words: make([]uint64, n*k), desc: desc}
	for i, p := range keyPos {
		ranked := false
		for r, row := range rows {
			var w uint64
			switch v := row[p]; v.K {
			case data.KindNull:
				if s.nulls == nil {
					s.nulls = make([]uint64, (n*k+63)/64)
				}
				j := r*k + i
				s.nulls[j/64] |= 1 << (j % 64)
			case data.KindFloat:
				w = floatWord(v.Float())
			case data.KindString:
				ranked = true // the column is ranked after it is read
			default:
				w = v.Bits() ^ 1<<63
			}
			s.words[r*k+i] = w
		}
		if ranked {
			s.rankStrings(rows, p, i, strs)
		}
		if desc[i] {
			for j := i; j < len(s.words); j += k {
				s.words[j] = ^s.words[j]
			}
		}
	}
	return s, nil
}

// orderable reports whether data.Compare orders a against b without an
// error.
func orderable(strs *data.Strings, a, b data.Value) bool {
	if a.K.Numeric() && b.K.Numeric() {
		return true
	}
	if a.K != b.K {
		return false
	}
	switch a.K {
	case data.KindBool, data.KindDate:
		return true
	case data.KindString:
		return strs != nil || a.Code() == b.Code()
	}
	return false
}

// floatWord maps a non-NaN float to a word that orders as the float
// does, -0 and 0 to one word.
func floatWord(f float64) uint64 {
	if f == 0 {
		f = 0 // -0 == 0
	}
	b := math.Float64bits(f)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// rankStrings sets the word of every string key at position i (column p
// of rows) to the rank of its text among the position's distinct codes.
// Only the distinct codes are ordered through strs, once each sort.
func (s *sortKeys) rankStrings(rows []data.Row, p, i int, strs *data.Strings) {
	code := func(r int32) uint64 { return rows[r][p].Code() }
	byCode := make([]int32, 0, len(rows))
	for r, row := range rows {
		if row[p].K == data.KindString {
			byCode = append(byCode, int32(r))
		}
	}
	slices.SortFunc(byCode, func(a, b int32) int { return cmp.Compare(code(a), code(b)) })
	var distinct []int32 // one row per code
	for j, r := range byCode {
		if j == 0 || code(r) != code(byCode[j-1]) {
			distinct = append(distinct, r)
		}
	}
	slices.SortFunc(distinct, func(a, b int32) int {
		return strings.Compare(strs.Text(rows[a][p]), strs.Text(rows[b][p]))
	})
	for rank, r := range distinct {
		s.words[int(r)*s.k+i] = uint64(rank)
	}
	for j := 1; j < len(byCode); j++ {
		if r, prev := byCode[j], byCode[j-1]; code(r) == code(prev) {
			s.words[int(r)*s.k+i] = s.words[int(prev)*s.k+i]
		}
	}
}

// null reports whether word j is a NULL key.
func (s *sortKeys) null(j int) bool {
	return s.nulls != nil && s.nulls[j/64]&(1<<(j%64)) != 0
}

// maxPacked is the most key positions pack combines.
const maxPacked = 4

// pack rewrites the keys of every row as one word, rank<<32 | row
// index, when the ranks fit in 32 bits: the rank is the row's keys in
// mixed radix, each position's non-NULL words less their minimum, and
// NULL, when the position holds one, in a slot below or above them.
// Sorting the packed words as integers then sorts the rows, stably, with
// no comparator and no permutation buffer; words keeps one packed word
// per row. pack returns the number of ranks, the product of the radixes,
// and reports whether it packed; a nil s does not. The product is
// checked before it is formed, so that it cannot wrap.
//
// On the 160 sampled plans of BenchmarkExecute/sweep/sampled, 539 of
// 597 sorts, holding 99.6% of the sorted rows, pack, and the sweep runs
// 1.3x faster than with the word comparator alone.
func (s *sortKeys) pack() (uint64, bool) {
	if s == nil {
		return 0, false
	}
	k, n := s.k, len(s.words)/s.k
	if k > maxPacked || n > 1<<32 {
		return 0, false
	}
	var lo, radix, nullSlot [maxPacked]uint64
	space := uint64(1)
	for i := range k {
		l, h, nulls := uint64(math.MaxUint64), uint64(0), false
		for j := i; j < len(s.words); j += k {
			if s.null(j) {
				nulls = true
			} else {
				l, h = min(l, s.words[j]), max(h, s.words[j])
			}
		}
		if l > h { // all NULL
			l, h = 0, 0
		}
		if h-l >= 1<<32 {
			return 0, false
		}
		lo[i], radix[i] = l, h-l+1
		if nulls {
			radix[i]++
			if s.desc[i] {
				nullSlot[i] = radix[i] - 1
			} else {
				lo[i]-- // the values take slots 1 and up, NULL slot 0
			}
		}
		if radix[i] > 1<<32/space {
			return 0, false
		}
		space *= radix[i]
	}
	for r := range n {
		var rank uint64
		for i := range k {
			j := r*k + i
			slot := nullSlot[i]
			if !s.null(j) {
				slot = s.words[j] - lo[i]
			}
			rank = rank*radix[i] + slot
		}
		s.words[r] = rank<<32 | uint64(r) // row r's words are at r*k and on
	}
	s.words = s.words[:n]
	return space, true
}

// radixMin is the fewest packed words sortPacked radix-sorts. Below it
// the fixed cost of each radix pass, clearing and summing 256 counters,
// outweighs the comparisons it saves (BenchmarkSortPacked).
const radixMin = 128

// sortPacked sorts packed words, rank<<32 | index with every rank below
// space and the indexes in increasing order, into the order slices.Sort
// gives them.
func sortPacked(words []uint64, space uint64) {
	if len(words) < radixMin {
		slices.Sort(words)
		return
	}
	radixSort(words, space)
}

// radixSort is sortPacked's least-significant-digit radix sort over the
// rank bits only, one byte per pass. Each pass is stable, so rows of
// equal rank keep their index order, and a pass whose byte all words
// share is skipped. The scatter buffer is the spare capacity decorate
// left behind words when the buffer had more than one key position.
func radixSort(words []uint64, space uint64) {
	n := len(words)
	buf := words[n:cap(words)]
	if len(buf) < n {
		buf = make([]uint64, n)
	}
	src, dst := words, buf[:n]
	for shift := uint(32); (space-1)>>(shift-32) != 0; shift += 8 {
		var start [256]int
		for _, w := range src {
			start[byte(w>>shift)]++
		}
		if start[byte(src[0]>>shift)] == n {
			continue
		}
		sum := 0
		for d, c := range start {
			start[d], sum = sum, sum+c
		}
		for _, w := range src {
			d := byte(w >> shift)
			dst[start[d]] = w
			start[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &words[0] {
		copy(words, src)
	}
}

// compare orders rows a and b by their words, NULL first on an
// ascending key and last on a descending one, then by index.
func (s *sortKeys) compare(a, b int32) int {
	k := s.k
	ia, ib := int(a)*k, int(b)*k
	for i := range k {
		if na, nb := s.null(ia+i), s.null(ib+i); na || nb {
			if na == nb {
				continue
			}
			if na != s.desc[i] {
				return -1
			}
			return 1
		}
		if c := cmp.Compare(s.words[ia+i], s.words[ib+i]); c != 0 {
			return c
		}
	}
	return cmp.Compare(a, b)
}

// permute moves rows[perm[i]] to position i in place, one cycle of perm
// at a time, and leaves perm the identity.
func permute[P int32 | uint64](rows []data.Row, perm []P) {
	for i := range perm {
		if int(perm[i]) == i {
			continue
		}
		first := rows[i]
		for j := i; ; {
			src := int(perm[j])
			perm[j] = P(j)
			if src == i {
				rows[j] = first
				break
			}
			rows[j] = rows[src]
			j = src
		}
	}
}
