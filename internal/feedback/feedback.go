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
// epoch. Cost overlays are cached under a key holding the epoch: a bump
// makes every costing cached under an older epoch stale while leaving
// structures untouched. An engine owns one store, so the epoch alone
// says which corrections an overlay was costed with.
package feedback

import (
	"container/list"
	"math"
	"sort"
	"sync"
)

// Factor clamps: a single feedback round never scales an estimate by
// more than this in either direction, and composed factors are clamped
// to the same range — misattributed observations (e.g. from a plan that
// hit an estimator edge case) must not poison costing forever.
const (
	maxRoundFactor = 1e4
	maxTotalFactor = 1e6
)

// MaxKeys caps the pending and the active keys each. Keys embed filter
// constants, so a client executing ever new literals would otherwise
// grow the store without bound; at the cap, the key observed longest
// ago is evicted, as Ivanov & Bartunov's bounded knowledge base of past
// observations does.
const MaxKeys = 4096

// pendingAgg accumulates log-ratios for one key since the last Apply:
// the geometric mean of observed/estimated is robust to the order and
// count of executions that observed the same sub-problem.
type pendingAgg struct {
	key    string
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
	MaxKeys      int    `json:"max_keys"` // cap on Active and on Pending
	Evicted      uint64 `json:"evicted"`  // keys dropped at the cap, both maps
}

// Store is a concurrency-safe feedback store for one catalog.
type Store struct {
	mu    sync.Mutex
	epoch uint64
	// pending and active index their lists, which run from the most to
	// the least recently observed key: list values are *pendingAgg and
	// *Correction.
	pending, active         map[string]*list.Element
	pendingList, activeList list.List

	// view is the published, immutable key→factor map for the current
	// epoch. Apply and Reset REPLACE it (copy-on-write, never mutate),
	// so EpochView hands out an (epoch, factors) pair that stays
	// internally consistent no matter how many folds land afterwards —
	// the property cost overlays rely on to be cacheable under their
	// overlay key (the statistics version and the epoch).
	view map[string]float64

	recorded     uint64
	lastApplied  int
	totalApplied uint64
	evicted      uint64
}

// NewStore returns an empty store at epoch 0.
func NewStore() *Store {
	return &Store{
		pending: make(map[string]*list.Element),
		active:  make(map[string]*list.Element),
	}
}

// observe returns key's element of m, marked most recently observed. A
// missing key gets a fresh element holding mk(), after the least
// recently observed key is evicted if m is at MaxKeys.
func (s *Store) observe(m map[string]*list.Element, l *list.List, key string, mk func() any) *list.Element {
	if e, ok := m[key]; ok {
		l.MoveToFront(e)
		return e
	}
	if len(m) >= MaxKeys {
		oldest := l.Back()
		delete(m, keyOf(oldest))
		l.Remove(oldest)
		s.evicted++
	}
	e := l.PushFront(mk())
	m[key] = e
	return e
}

func keyOf(e *list.Element) string {
	if p, ok := e.Value.(*pendingAgg); ok {
		return p.key
	}
	return e.Value.(*Correction).Key
}

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
	agg := s.observe(s.pending, &s.pendingList, key, func() any { return &pendingAgg{key: key} }).Value.(*pendingAgg)
	if e, ok := s.active[key]; ok {
		s.activeList.MoveToFront(e)
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
	// Fold from the least to the most recently observed key, so the
	// active list keeps observation order.
	for e := s.pendingList.Back(); e != nil; e = e.Prev() {
		agg := e.Value.(*pendingAgg)
		round := math.Exp(agg.logSum / float64(agg.n))
		round = clamp(round, maxRoundFactor)
		cur := s.observe(s.active, &s.activeList, agg.key, func() any {
			return &Correction{Key: agg.key, Factor: 1}
		}).Value.(*Correction)
		cur.Factor = clamp(cur.Factor*round, maxTotalFactor)
		cur.Observations += agg.n
		folded++
	}
	s.pending = make(map[string]*list.Element)
	s.pendingList.Init()
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
	for key, e := range s.active {
		view[key] = e.Value.(*Correction).Factor
	}
	s.view = view
}

// EpochView returns the current epoch together with the immutable
// factor map published at that epoch (nil when no corrections are
// active). The pair is read atomically: an overlay is cached under an
// overlay key that holds the epoch (beside the statistics version), so
// costing layers MUST cost with exactly this view — reading the epoch
// and then consulting live factors would let a concurrent Apply slip
// different factors under an already-chosen key.
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
	if e, ok := s.active[key]; ok {
		return e.Value.(*Correction).Factor, true
	}
	return 1, false
}

// Reset drops all state and bumps the epoch (so overlays costed with
// old corrections go stale too).
func (s *Store) Reset() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pending = make(map[string]*list.Element)
	s.active = make(map[string]*list.Element)
	s.pendingList.Init()
	s.activeList.Init()
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
	for _, e := range s.active {
		out = append(out, *e.Value.(*Correction))
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
		MaxKeys:      MaxKeys,
		Evicted:      s.evicted,
	}
}
