package engine

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"sync"

	"repro/internal/rules"
)

// Fingerprint is the canonical SHA-256 identity of a structure: it
// digests everything that determines the counted search space — the
// normalized query text, the rule configuration (which operators
// exist), and the catalog identity + schema version (which tables,
// columns, and indexes exist). Statistics and feedback deliberately do
// NOT participate: the paper's counting/unranking machinery depends
// only on query shape and rules, so a cost-side change must not rebuild
// the space. What determines costing over a structure — the catalog
// statistics version and the feedback store's identity and epoch — is
// the overlayKey its costings are cached under inside the structure's
// cache entry; a statistics refresh or a feedback application changes
// only that key, and the structure (memo, counts, unrank tables)
// survives and is re-costed in place.
//
// Two Prepare calls with an equal fingerprint and overlay key are
// guaranteed to produce the same space and the same costing, which is
// what makes caching both layers sound.
type Fingerprint [sha256.Size]byte

// String renders the fingerprint as hex — the form served by the HTTP
// endpoints and accepted in logs and bug reports.
func (f Fingerprint) String() string { return hex.EncodeToString(f[:]) }

// hashWriter accumulates length-prefixed fields into a SHA-256 digest;
// the length prefixes keep the encoding injective. Its scratch array
// holds each prefix and finally receives the sum, so a digest allocates
// only the writer and the hash state.
type hashWriter struct {
	h       hash.Hash
	scratch [sha256.Size]byte
}

func newHashWriter() *hashWriter { return &hashWriter{h: sha256.New()} }

func (w *hashWriter) bytes(b []byte) {
	w.u64(uint64(len(b)))
	w.h.Write(b)
}

func (w *hashWriter) u64(v uint64) {
	binary.LittleEndian.PutUint64(w.scratch[:8], v)
	w.h.Write(w.scratch[:8])
}

func (w *hashWriter) sum() Fingerprint {
	return Fingerprint(w.h.Sum(w.scratch[:0]))
}

// reprCache memoizes the %#v renderings of a flat, comparable config
// struct that enters the fingerprint. Rendering with fmt on every Prepare
// was a visible slice of the re-cost path; the distinct config count in
// a process is tiny, so an unbounded map is safe. Keying by the typed
// value, not an interface, keeps the lookup allocation-free.
type reprCache[K comparable] struct {
	mu sync.RWMutex
	m  map[K][]byte
}

func (c *reprCache[K]) of(v K) []byte {
	c.mu.RLock()
	b, ok := c.m[v]
	c.mu.RUnlock()
	if ok {
		return b
	}
	b = fmt.Appendf(nil, "%#v", v)
	c.mu.Lock()
	if c.m == nil {
		c.m = make(map[K][]byte)
	}
	c.m[v] = b
	c.mu.Unlock()
	return b
}

var (
	rulesRepr    reprCache[rules.Config]
	structureTag = []byte("fps1")
)

// structureFingerprintOf digests the inputs of the structure layer:
// the canonical SQL (sql.SelectStmt.AppendCanonical without the OPTION
// clause — whitespace, keyword case and comments are gone, and every
// USEPLAN variant of a query shares one space), the rules, and the
// catalog identity and schema version. The encoding is versioned
// ("fps1") so a change to the scheme cannot collide with digests from
// an older layout. The rule configuration is a flat scalar struct, so
// its %#v rendering is deterministic and automatically picks up any
// field added later.
func structureFingerprintOf(canonical []byte, r rules.Config, catalogID, schemaVersion uint64) Fingerprint {
	w := newHashWriter()
	w.bytes(structureTag)
	w.bytes(canonical)
	w.bytes(rulesRepr.of(r))
	w.u64(catalogID)
	w.u64(schemaVersion)
	return w.sum()
}
