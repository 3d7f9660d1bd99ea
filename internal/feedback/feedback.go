// Package feedback implements the adaptive re-optimization loop's
// memory: a per-catalog store of (estimated vs. observed) cardinality
// pairs harvested from executed plans, folded on demand into
// multiplicative correction factors the cost estimator applies on the
// next costing pass.
//
// The design follows the sampling-based re-optimization line of work
// (Wu et al.) combined with feedback-corrected cardinalities (Ivanov &
// Bartunov, and before them LEO): execution is the ground truth the
// estimator never had, and because the counted plan-space *structure*
// is independent of costs, corrections only invalidate the cheap cost
// overlay — the memo, the counts, and the unrank tables survive.
//
// Observations accumulate in a pending buffer keyed by a canonical
// description of the relation subset they describe (the engine renders
// keys from table names, pushed-down filters, and applicable join
// predicates, so equal sub-problems across queries share corrections).
// Apply folds pending observations into the active factors — each new
// ratio is measured against estimates that already included the old
// factor, so factors compose multiplicatively — and bumps the feedback
// epoch. Cost overlays embed the store's ID and epoch in their
// fingerprint: a bump makes every costing cached under this store stale
// while leaving structures untouched.
package feedback

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Factor clamps: a single feedback round never scales an estimate by
// more than this in either direction, and composed factors are clamped
// to the same range — misattributed observations (e.g. from a plan that
// hit an estimator edge case) must not poison costing forever.
const (
	maxRoundFactor = 1e4
	maxTotalFactor = 1e6
)

// pendingAgg accumulates log-ratios for one key since the last Apply:
// the geometric mean of observed/estimated is robust to the order and
// count of executions that observed the same sub-problem.
type pendingAgg struct {
	logSum float64
	n      int64
}

// Correction is one active correction factor, for introspection.
type Correction struct {
	Key          string  `json:"key"`
	Factor       float64 `json:"factor"`
	Observations int64   `json:"observations"` // folded into this factor so far
}

// Stats is a point-in-time snapshot of the store.
type Stats struct {
	Epoch        uint64 `json:"epoch"`
	Active       int    `json:"active"`       // keys with a non-unit correction
	Pending      int    `json:"pending"`      // keys with unfolded observations
	Recorded     uint64 `json:"recorded"`     // observations ever recorded
	LastApplied  int    `json:"last_applied"` // keys folded by the last Apply
	TotalApplied uint64 `json:"total_applied"`
}

// nextStoreID hands every Store a process-unique identity. Epochs are
// per-store counters, so two stores both at epoch 1 hold different
// corrections; cost overlays key on (store ID, epoch), never on the
// epoch alone.
var nextStoreID atomic.Uint64

// Store is a concurrency-safe feedback store for one catalog.
type Store struct {
	id      uint64
	mu      sync.Mutex
	epoch   uint64
	pending map[string]*pendingAgg
	active  map[string]*Correction

	// view is the published, immutable key→factor map for the current
	// epoch. Apply and Reset REPLACE it (copy-on-write, never mutate),
	// so EpochView hands out an (epoch, factors) pair that stays
	// internally consistent no matter how many folds land afterwards —
	// the property cost overlays rely on to be cacheable under an
	// epoch-bearing fingerprint.
	view map[string]float64

	recorded     uint64
	lastApplied  int
	totalApplied uint64
}

// NewStore returns an empty store at epoch 0.
func NewStore() *Store {
	return &Store{
		id:      nextStoreID.Add(1),
		pending: make(map[string]*pendingAgg),
		active:  make(map[string]*Correction),
	}
}

// ID returns the store's process-unique identity.
func (s *Store) ID() uint64 { return s.id }

// Epoch returns the current feedback epoch. It advances only on Apply,
// so recording observations never invalidates anything by itself.
func (s *Store) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// Record adds one (estimated, observed) cardinality pair for a key.
// epoch must be the feedback epoch the estimate was costed under (the
// overlay's epoch): an observation measured against older-epoch
// estimates is silently dropped, because its ratio already reflects
// corrections that a later Apply folded — composing it again would
// double-correct. (Example: an execution costed at epoch 0 finishes
// after a fold set factor 0.08; its ratio is ~0.08 relative to the
// epoch-0 estimate, and folding it onto the active 0.08 would yield
// 0.0064.) Non-positive estimates or observations carry no signal and
// are dropped. Recording is cheap and lock-bounded: it runs on the
// execution path for every operator of every completed plan.
func (s *Store) Record(key string, estimated, observed float64, epoch uint64) {
	if key == "" || estimated <= 0 || observed <= 0 ||
		math.IsNaN(estimated) || math.IsInf(estimated, 0) ||
		math.IsNaN(observed) || math.IsInf(observed, 0) {
		return
	}
	lr := math.Log(observed / estimated)
	s.mu.Lock()
	if epoch != s.epoch {
		s.mu.Unlock()
		return // measured against another epoch's estimates
	}
	agg, ok := s.pending[key]
	if !ok {
		agg = &pendingAgg{}
		s.pending[key] = agg
	}
	agg.logSum += lr
	agg.n++
	s.recorded++
	s.mu.Unlock()
}

// Apply folds all pending observations into the active correction
// factors and bumps the epoch. Each key's round factor is the geometric
// mean of its pending observed/estimated ratios, clamped; it composes
// multiplicatively with the key's existing factor because the pending
// ratios were measured against estimates that already included it.
// Apply returns the number of keys folded and the new epoch; with no
// pending observations it still bumps the epoch (callers use it to
// force a re-cost).
func (s *Store) Apply() (folded int, epoch uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for key, agg := range s.pending {
		round := math.Exp(agg.logSum / float64(agg.n))
		round = clamp(round, maxRoundFactor)
		cur, ok := s.active[key]
		if !ok {
			cur = &Correction{Key: key, Factor: 1}
			s.active[key] = cur
		}
		cur.Factor = clamp(cur.Factor*round, maxTotalFactor)
		cur.Observations += agg.n
		folded++
	}
	s.pending = make(map[string]*pendingAgg)
	s.epoch++
	s.publishViewLocked()
	s.lastApplied = folded
	s.totalApplied += uint64(folded)
	return folded, s.epoch
}

// publishViewLocked freezes the current factors into a fresh immutable
// view map. Readers holding the previous view keep a consistent
// snapshot of the previous epoch.
func (s *Store) publishViewLocked() {
	if len(s.active) == 0 {
		s.view = nil
		return
	}
	view := make(map[string]float64, len(s.active))
	for key, c := range s.active {
		view[key] = c.Factor
	}
	s.view = view
}

// EpochView returns the current epoch together with the immutable
// factor map published at that epoch (nil when no corrections are
// active). The pair is read atomically: costing layers fingerprint
// overlays by the epoch and MUST cost with exactly this view — reading
// the epoch and then consulting live factors would let a concurrent
// Apply slip different factors under an already-chosen fingerprint.
// The returned map must not be mutated.
func (s *Store) EpochView() (uint64, map[string]float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch, s.view
}

func clamp(f, limit float64) float64 {
	if f > limit {
		return limit
	}
	if f < 1/limit {
		return 1 / limit
	}
	return f
}

// Factor returns the active correction for a key (1, false when none).
func (s *Store) Factor(key string) (float64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.active[key]; ok {
		return c.Factor, true
	}
	return 1, false
}

// Reset drops all state and bumps the epoch (so overlays costed with
// old corrections go stale too).
func (s *Store) Reset() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pending = make(map[string]*pendingAgg)
	s.active = make(map[string]*Correction)
	s.epoch++
	s.publishViewLocked()
	s.lastApplied = 0
	return s.epoch
}

// Corrections returns the active factors sorted by key (for /stats and
// debugging).
func (s *Store) Corrections() []Correction {
	s.mu.Lock()
	out := make([]Correction, 0, len(s.active))
	for _, c := range s.active {
		out = append(out, *c)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Snapshot returns current counters.
func (s *Store) Snapshot() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Epoch:        s.epoch,
		Active:       len(s.active),
		Pending:      len(s.pending),
		Recorded:     s.recorded,
		LastApplied:  s.lastApplied,
		TotalApplied: s.totalApplied,
	}
}
