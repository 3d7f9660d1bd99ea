package data

import (
	"hash/maphash"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Strings is an append-only string interner: it gives each distinct text
// one code, and a string Value carries only that code. Equal texts get
// equal codes, so string equality is code equality; ordering, LIKE and
// display read the text back through Text.
//
// A storage.DB owns one root table, which only loading rows grows. A
// query that must materialize a constant the data lacks (a projected
// literal, a CASE arm) interns it in an Overlay: a table of its own,
// coded above the root's range, so requests never grow the root.
//
// The table holds no pointer per string, so the garbage collector does
// not trace it: texts are copied into byte arenas, a code's text is
// located by a textRef, and the text-to-code index is open addressing
// over codes. Text and Lookup take no lock and may run while another
// goroutine interns: arenas and refs never move once written, and every
// directory or index that grows is replaced whole and published
// atomically.
type Strings struct {
	base *Strings // for an overlay, the table it extends; nil for a root

	mu    sync.Mutex // serializes Intern; guards seed, fill
	seed  maphash.Seed
	fill  int // bytes used in the last arena
	n     atomic.Uint64
	refs  atomic.Pointer[[]textRef]       // per code; len is the capacity
	arena atomic.Pointer[[][]byte]        // text bytes, never rewritten
	index atomic.Pointer[[]atomic.Uint32] // code+1 per slot, 0 = empty
}

// textRef locates one code's text: arena, offset, length.
type textRef struct{ arena, off, n uint32 }

const (
	// overlayBase is the first code of an overlay, far above any root's
	// range.
	overlayBase = 1 << 48
	maxArena    = 64 << 10
)

// NewStrings returns an empty root table.
func NewStrings() *Strings { return &Strings{} }

// Overlay returns an empty table that resolves s's codes and interns
// texts absent from s above s's range, leaving s unchanged.
func (s *Strings) Overlay() *Strings { return &Strings{base: s} }

// Len returns the number of codes s itself has issued.
func (s *Strings) Len() int { return int(s.n.Load()) }

// Lookup returns the string value of text, if s (or, for an overlay,
// its base) has interned it.
func (s *Strings) Lookup(text string) (Value, bool) {
	if s.base != nil {
		if v, ok := s.base.Lookup(text); ok {
			return v, true
		}
	}
	if c, ok := s.find(text); ok {
		return s.value(c), true
	}
	return Value{}, false
}

// Intern returns the string value of text, issuing a new code when
// neither s nor its base knows the text.
func (s *Strings) Intern(text string) Value {
	if v, ok := s.Lookup(text); ok {
		return v
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.find(text); ok {
		return s.value(c)
	}
	c := s.n.Load()
	s.store(c, text)
	s.n.Store(c + 1)
	s.addToIndex(c)
	return s.value(c)
}

// Text returns the text of the string value v.
func (s *Strings) Text(v Value) string {
	c := v.p
	if s.base != nil {
		if c < overlayBase {
			return s.base.Text(v)
		}
		c -= overlayBase
	}
	return s.text(c)
}

// Format renders v for display and result digests; strings render as
// their text. s may be nil when v is not a string.
func (s *Strings) Format(v Value) string { return string(v.append(nil, s)) }

// Append appends Format(v) to b.
func (s *Strings) Append(b []byte, v Value) []byte { return v.append(b, s) }

func (s *Strings) value(c uint64) Value {
	if s.base != nil {
		c += overlayBase
	}
	return Value{K: KindString, p: c}
}

// text returns the text of s's own code c.
func (s *Strings) text(c uint64) string {
	r := (*s.refs.Load())[c]
	if r.n == 0 {
		return ""
	}
	return unsafe.String(&(*s.arena.Load())[r.arena][r.off], r.n)
}

// find returns s's own code of text.
func (s *Strings) find(text string) (uint64, bool) {
	p := s.index.Load()
	if p == nil {
		return 0, false
	}
	slots := *p
	mask := uint64(len(slots) - 1)
	for i := maphash.String(s.seed, text) & mask; ; i = (i + 1) & mask {
		c := slots[i].Load()
		if c == 0 {
			return 0, false
		}
		if s.text(uint64(c-1)) == text {
			return uint64(c - 1), true
		}
	}
}

// store copies text into the arenas and records it as code c. The
// caller holds s.mu.
func (s *Strings) store(c uint64, text string) {
	var arenas [][]byte
	if p := s.arena.Load(); p != nil {
		arenas = *p
	}
	if len(arenas) == 0 || s.fill+len(text) > len(arenas[len(arenas)-1]) {
		size := max(len(text), min(maxArena, 256<<min(len(arenas), 8)))
		arenas = append(arenas[:len(arenas):len(arenas)], make([]byte, size))
		s.arena.Store(&arenas)
		s.fill = 0
	}
	a := len(arenas) - 1
	copy(arenas[a][s.fill:], text)
	r := textRef{arena: uint32(a), off: uint32(s.fill), n: uint32(len(text))}
	s.fill += len(text)

	var refs []textRef
	if p := s.refs.Load(); p != nil {
		refs = *p
	}
	if int(c) == len(refs) {
		grown := make([]textRef, max(16, 2*len(refs)))
		copy(grown, refs)
		refs = grown
		s.refs.Store(&refs)
	}
	refs[c] = r
}

// addToIndex enters code c in the index, rebuilding it twice as large
// when it would pass half full. The caller holds s.mu.
func (s *Strings) addToIndex(c uint64) {
	p := s.index.Load()
	if p != nil && 2*(c+1) <= uint64(len(*p)) {
		insertCode(*p, s.seed, s.text(c), c)
		return
	}
	if p == nil {
		s.seed = maphash.MakeSeed()
	}
	size := 16
	for uint64(size) < 2*(c+1) {
		size *= 2
	}
	slots := make([]atomic.Uint32, size)
	for i := uint64(0); i <= c; i++ {
		insertCode(slots, s.seed, s.text(i), i)
	}
	s.index.Store(&slots)
}

func insertCode(slots []atomic.Uint32, seed maphash.Seed, text string, c uint64) {
	mask := uint64(len(slots) - 1)
	i := maphash.String(seed, text) & mask
	for slots[i].Load() != 0 {
		i = (i + 1) & mask
	}
	slots[i].Store(uint32(c + 1))
}
