package engine

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sync"

	"repro/internal/cost"
	"repro/internal/rules"
	"repro/internal/sql"
)

// Fingerprint is a canonical SHA-256 identity. The engine uses two
// layers of them, mirroring the two cached layers of a prepared query:
//
//   - The structure fingerprint digests everything that determines the
//     counted search space — the normalized query text, the rule
//     configuration (which operators exist), and the catalog identity +
//     schema version (which tables, columns, and indexes exist). Cost
//     parameters and statistics deliberately do NOT participate: the
//     paper's counting/unranking machinery depends only on query shape
//     and rules, so a cost-model change must not rebuild the space.
//
//   - The overlay fingerprint digests the structure fingerprint plus
//     everything that determines costing over that structure — cost
//     parameters, the catalog statistics version, and the feedback
//     store's identity and epoch. A statistics refresh or a feedback
//     application changes only this layer; the structure (memo,
//     counts, unrank tables) survives and is re-costed in place.
//
// Two Prepare calls with equal fingerprints at both layers are
// guaranteed to produce the same space and the same costing, which is
// what makes caching both layers sound.
type Fingerprint [sha256.Size]byte

// String renders the fingerprint as hex — the form served by the HTTP
// endpoints and accepted in logs and bug reports.
func (f Fingerprint) String() string { return hex.EncodeToString(f[:]) }

// canonicalSQL normalizes a parsed statement back to one canonical text:
// whitespace, keyword case, and comment differences disappear because
// the AST renders itself, and the OPTION (USEPLAN n) suffix is stripped
// because the requested plan number selects within the space without
// changing it — every USEPLAN variant of a query shares one cached
// space.
func canonicalSQL(stmt *sql.SelectStmt) string {
	if stmt.Option == nil {
		return stmt.String()
	}
	bare := *stmt
	bare.Option = nil
	return bare.String()
}

// hashWriter accumulates length-prefixed fields into a SHA-256 digest;
// the length prefixes keep the encoding injective.
type hashWriter struct {
	h   interface{ Write([]byte) (int, error) }
	num [8]byte
}

func (w *hashWriter) str(s string) {
	binary.LittleEndian.PutUint64(w.num[:], uint64(len(s)))
	w.h.Write(w.num[:])
	w.h.Write([]byte(s))
}

func (w *hashWriter) u64(v uint64) {
	binary.LittleEndian.PutUint64(w.num[:], v)
	w.h.Write(w.num[:])
}

// reprCache memoizes the %#v renderings of the flat, comparable config
// structs that enter fingerprints. Rendering them with fmt on every
// Prepare was a visible slice of the re-cost path; the distinct config
// count in a process is tiny, so an unbounded map is safe.
var reprCache sync.Map // comparable config value → string

func reprOf(v any) string {
	if s, ok := reprCache.Load(v); ok {
		return s.(string)
	}
	s := fmt.Sprintf("%#v", v)
	reprCache.Store(v, s)
	return s
}

// structureFingerprintOf digests the inputs of the structure layer. The
// encoding is versioned ("fps1") so a change to the scheme cannot
// collide with digests from an older layout. The rule configuration is
// a flat scalar struct, so its %#v rendering is deterministic and
// automatically picks up any field added later.
func structureFingerprintOf(canonical string, r rules.Config, catalogID, schemaVersion uint64) Fingerprint {
	h := sha256.New()
	w := &hashWriter{h: h}
	w.str("fps1")
	w.str(canonical)
	w.str(reprOf(r))
	w.u64(catalogID)
	w.u64(schemaVersion)
	var f Fingerprint
	h.Sum(f[:0])
	return f
}

// overlayFingerprintOf digests the inputs of the costing layer on top
// of a structure fingerprint ("fpo2"). The feedback store's ID takes
// part because epochs are per-store counters: two engines sharing one
// cache may both be at epoch 1 with different corrections.
func overlayFingerprintOf(structure Fingerprint, p cost.Params, k overlayKey) Fingerprint {
	h := sha256.New()
	w := &hashWriter{h: h}
	w.str("fpo2")
	h.Write(structure[:])
	w.str(reprOf(p))
	w.u64(k.statsVersion)
	w.u64(k.store)
	w.u64(k.epoch)
	var f Fingerprint
	h.Sum(f[:0])
	return f
}
