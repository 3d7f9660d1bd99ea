// Package engine is the public façade of the reproduction: it parses SQL,
// optimizes it into a counted search space, and executes plans — either
// the optimizer's choice, a plan selected by number through the paper's
// OPTION (USEPLAN n) extension (Section 4), or plans drawn by uniform
// sampling (Section 5).
//
// Preparation is a staged, cache-aware pipeline over two layers held in
// ONE cache — each SpaceCache entry carries its structure's overlay
// and the statement texts that resolved to it:
//
//	text key ──── alias hit ─────────────────→ SpaceCache entry
//	   └─ miss → parse → structure fingerprint → SpaceCache entry     → [bind → expand → count], record alias
//	overlay key ─────────────────────────────→ the entry's overlay  → [re-cost in place]
//
// A repeated statement text (the exact bytes, under the same rules and
// schema version) finds its entry through its alias without
// parsing, canonical rendering or hashing; each entry answers the last
// few texts that resolved to it (maxAliases).
//
// The structure layer — the bound query, the expanded MEMO, and the
// counted space with its unrank tables — depends only on the canonical
// SQL, the rule configuration, and the catalog schema, so it survives
// every cost-side change. The overlay layer — an opt.Costing: per-group
// cardinalities, per-operator costs, the optimal plan and its rank —
// depends additionally on the catalog statistics version and the
// epoch of the engine's feedback store, the two fields of the overlay
// key it is cached under. Each entry keeps the overlay of the newest
// key. A statistics refresh or an applied feedback round
// therefore re-costs a cached structure in place (milliseconds) instead
// of re-preparing it (parse, bind, optimize, count).
//
// The feedback epoch is what closes the adaptive re-optimization loop:
// executions record (operator, estimated vs. observed cardinality)
// pairs into the engine's feedback.Store; ApplyFeedback folds them into
// correction factors and bumps the epoch, invalidating exactly the
// overlay tier — so the next Execute of the same query re-costs, may
// select a different optimal plan, and runs it, without ever
// re-enumerating the space.
//
// Sessions are the unit of configuration: an Engine owns the database,
// its cache, and the feedback store, a Session owns one
// rule configuration, and Session.Prepare is the single
// preparation path in the codebase — Engine.Prepare, the experiments,
// the CLIs, and the plan-space server all go through it; Prepared.Select
// and Prepared.Check are likewise the one plan selection and result check.
package engine

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"sync"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/feedback"
	"repro/internal/memo"
	"repro/internal/opt"
	"repro/internal/plan"
	"repro/internal/rules"
	"repro/internal/sql"
	"repro/internal/storage"
)

// settings collects everything Options can configure.
type settings struct {
	opts       opt.Options
	cacheCap   int
	cacheBytes int64
}

// Option configures an Engine (and, for the optimizer-facing options,
// a Session derived from one).
type Option func(*settings)

// WithCartesian toggles Cartesian products in the join-order space — the
// switch between the two halves of the paper's Table 1.
func WithCartesian(allow bool) Option {
	return func(s *settings) { s.opts.Rules.AllowCartesian = allow }
}

// WithRules replaces the whole rule configuration.
func WithRules(cfg rules.Config) Option {
	return func(s *settings) { s.opts.Rules = cfg }
}

// WithCacheLimits bounds the engine's plan-space cache to at most
// entries counted structures (below one is clamped to one) and maxBytes
// of their estimated memory (0 disables byte-based eviction). The
// defaults are DefaultCacheCapacity and DefaultCacheBytes. Ignored by
// Engine.Session, where the engine's cache is already built.
func WithCacheLimits(entries int, maxBytes int64) Option {
	return func(s *settings) { s.cacheCap, s.cacheBytes = entries, maxBytes }
}

// Engine plans and executes queries over one database. It owns the
// plan-space cache and the feedback store shared by all sessions
// derived from it; no other engine shares them.
type Engine struct {
	db    *storage.DB
	opts  opt.Options
	cache *SpaceCache
	fb    *feedback.Store
}

// New returns an engine over db with the default full rule set, its
// own cache (bounded by WithCacheLimits), and its own feedback store.
func New(db *storage.DB, options ...Option) *Engine {
	s := settings{opts: opt.DefaultOptions(), cacheCap: DefaultCacheCapacity, cacheBytes: DefaultCacheBytes}
	for _, o := range options {
		o(&s)
	}
	return &Engine{db: db, opts: s.opts, cache: newSpaceCache(s.cacheCap, s.cacheBytes), fb: feedback.NewStore()}
}

// DB returns the engine's database.
func (e *Engine) DB() *storage.DB { return e.db }

// Cache returns the engine's plan-space cache (shared by all its
// sessions).
func (e *Engine) Cache() *SpaceCache { return e.cache }

// Overlays returns a read-only view of the cost-overlay counters of the
// engine's cache.
func (e *Engine) Overlays() OverlayView { return OverlayView{e.cache} }

// Feedback returns the engine's feedback store.
func (e *Engine) Feedback() *feedback.Store { return e.fb }

// ApplyFeedback folds all recorded execution observations into active
// correction factors and bumps the feedback epoch, dropping every cost
// overlay costed under an older epoch (structures survive untouched).
// It returns the number of correction keys folded and the new epoch.
// The next Prepare or Execute of any query re-costs its cached
// structure under the new corrections and may select a different
// optimal plan.
func (e *Engine) ApplyFeedback() (folded int, epoch uint64) {
	folded, epoch = e.fb.Apply()
	e.cache.dropStaleOverlays(overlayKey{statsVersion: e.db.Catalog().StatsVersion(), epoch: epoch})
	return folded, epoch
}

// Session derives a session from the engine: the engine's options plus
// the given overrides, sharing the engine's database and cache.
// Sessions are cheap value holders — create one per client, request, or
// experiment configuration.
func (e *Engine) Session(options ...Option) *Session {
	s := settings{opts: e.opts}
	for _, o := range options {
		o(&s)
	}
	return &Session{engine: e, opts: s.opts}
}

// Prepare parses and fingerprints a text the cache has not seen and —
// on a structure miss — binds, optimizes, and counts it, under the
// engine's default options.
// It is shorthand for e.Session().Prepare(sqlText).
func (e *Engine) Prepare(sqlText string) (*Prepared, error) {
	return e.Session().Prepare(sqlText)
}

// Session is one rule configuration over an engine's database and
// cache. Its Prepare method is the codebase's single preparation path.
type Session struct {
	engine *Engine
	opts   opt.Options
}

// Engine returns the engine the session was derived from.
func (s *Session) Engine() *Engine { return s.engine }

// Options returns the session's optimizer options.
func (s *Session) Options() opt.Options { return s.opts }

// StructureSpace is the shared, immutable product of the expensive
// pipeline stages: the opt-layer structure (the bound query and the
// expanded MEMO) and the counted space with its unrank tables, whose
// candidate lists every re-cost's winner search folds over —
// everything that depends only on the canonical SQL, the rules, and
// the catalog schema. One StructureSpace
// is safe for any number of concurrent readers (counting, unranking,
// ranking, enumerating); it carries NO costs — those live in the
// opt.Costing overlays attached on demand — so any number of costings
// can share it. It is what the SpaceCache stores and what every Prepared
// statement for the same structure fingerprint shares.
type StructureSpace struct {
	*opt.Structure
	Fingerprint Fingerprint
	Canonical   string // normalized SQL the fingerprint was computed from
	Space       *core.Space
	MemoStats   memo.Stats // the memo's size, counted once at build

	// sel holds the selection bitmaps of the query's filtered
	// relations, recorded by the first full scan of each and read by
	// every later execution of any plan of the space. It goes with the
	// structure's cache entry.
	sel *exec.Selections

	keysOnce sync.Once
	keys     []string // by group ID: feedbackKey of scan and join groups, "" otherwise
}

// buildStructure runs the structure-miss stages: bind, expand, count.
func (s *Session) buildStructure(canonical string, stmt *sql.SelectStmt, fp Fingerprint) (*StructureSpace, error) {
	q, err := algebra.Build(stmt, s.engine.db.Catalog())
	if err != nil {
		return nil, err
	}
	st, err := opt.BuildStructure(q, s.opts.Rules)
	if err != nil {
		return nil, err
	}
	space, err := core.Prepare(st.Memo)
	if err != nil {
		return nil, err
	}
	return &StructureSpace{Structure: st, Fingerprint: fp, Canonical: canonical, Space: space, MemoStats: st.Memo.Stats(),
		sel: exec.NewSelections(s.engine.db, q)}, nil
}

// Prepare runs the staged pipeline. A statement text the cache has
// resolved before goes straight to its structure entry; any other text
// is parsed and fingerprinted first (resolve). Binding, expansion, and
// counting run only when the structure fingerprint misses the
// SpaceCache, and costing runs only when the overlay key misses the
// structure entry's overlay slot. Costing is the cheap re-cost a
// statistics refresh or a feedback application pays instead of a full
// Prepare.
// Concurrent calls for one fingerprint and key share a single build at
// each layer, and all Prepared statements for them share one
// StructureSpace and one opt.Costing.
func (s *Session) Prepare(sqlText string) (*Prepared, error) {
	cat := s.engine.db.Catalog()
	// One version read serves the text key, the fingerprint and the
	// cache entry: reading twice could race a concurrent bump and record
	// the entry under a version newer than its fingerprint encodes,
	// pinning a dead space in the LRU (no future caller recomputes that
	// key).
	key := textKey{text: sqlText, rules: s.opts.Rules, schemaVersion: cat.SchemaVersion()}
	ent, usePlan, sCached := s.engine.cache.text(key)
	if !sCached {
		var err error
		if ent, usePlan, sCached, err = s.resolve(key); err != nil {
			return nil, err
		}
	}
	// Same single-read discipline for the overlay's inputs. The epoch
	// and its factor view come out of the store atomically: costing
	// with the live factors instead would let an ApplyFeedback that
	// lands mid-build cache a costing under a key whose epoch it does
	// not match.
	epoch, view := s.engine.fb.EpochView()
	p, err := s.engine.costed(ent, overlayKey{statsVersion: cat.StatsVersion(), epoch: epoch}, view)
	if err != nil {
		return nil, err
	}
	p.Cached, p.UsePlan = sCached, usePlan
	return p, nil
}

// costed returns a statement over the structure of entry ent with the
// overlay the cache holds for key, which on a miss is costed with the
// epoch view of key. The lookup may serve the overlay of a newer key;
// the statement then records feedback under that key's epoch, the one
// whose estimates it executes against.
func (e *Engine) costed(ent *cacheEntry, key overlayKey, view map[string]float64) (*Prepared, error) {
	ss := ent.val
	costing, key, cached, err := e.cache.overlay(ent, key, func() (*opt.Costing, error) {
		return ss.Cost(ss.Space, ss.factors(view))
	})
	if err != nil {
		return nil, err
	}
	return &Prepared{Opt: costing, Space: ss.Space, Shared: ss, OverlayCached: cached, epoch: key.epoch, engine: e}, nil
}

// resolve is the path of a text the cache has no alias for: parse,
// fingerprint, find or build the structure entry, and check the
// statement's USEPLAN number against the space. It then records the
// text as an alias of the entry, so the next Prepare of the same text
// skips all of this.
func (s *Session) resolve(key textKey) (ent *cacheEntry, usePlan *big.Int, cached bool, err error) {
	stmt, err := sql.Parse(key.text)
	if err != nil {
		return nil, nil, false, err
	}
	// The canonical text goes into one buffer sized from the SQL text:
	// the rendering drops indentation but parenthesizes every operator
	// application, so it is rarely much longer. The fingerprint hashes
	// its bytes; only a structure miss copies them into a string.
	canonical := stmt.AppendCanonical(make([]byte, 0, len(key.text)+len(key.text)/4+16), false)
	sfp := structureFingerprintOf(canonical, key.rules, s.engine.db.Catalog().ID(), key.schemaVersion)
	ent, cached, err = s.engine.cache.entry(sfp, key.schemaVersion, func() (*StructureSpace, error) {
		return s.buildStructure(string(canonical), stmt, sfp)
	})
	if err != nil {
		return nil, nil, false, err
	}
	if stmt.Option != nil {
		n, ok := new(big.Int).SetString(stmt.Option.UsePlan, 10)
		if !ok {
			return nil, nil, false, fmt.Errorf("engine: invalid USEPLAN number %q", stmt.Option.UsePlan)
		}
		if count := ent.val.Space.Count(); n.Sign() < 0 || n.Cmp(count) >= 0 {
			return nil, nil, false, fmt.Errorf("engine: USEPLAN %s out of range: query has %s plans", n, count)
		}
		usePlan = n
	}
	s.engine.cache.alias(ent, key, usePlan)
	return ent, usePlan, cached, nil
}

// Prepared is a parsed, optimized, and counted query: the frozen search
// space plus the optimal plan, ready for counting, unranking, sampling,
// and execution. Space aliases the shared StructureSpace's; Opt is the
// cached cost overlay attached to it (its Memo is the structure's) —
// both layers are immutable and may be shared with every other Prepared
// of the same fingerprint and overlay key.
type Prepared struct {
	Opt   *opt.Costing
	Space *core.Space

	// Shared is the cached StructureSpace this statement runs against.
	// Cached reports whether Prepare found the structure in the cache
	// (false when this call built it); OverlayCached the same for Opt —
	// a (Cached, !OverlayCached) statement paid a cheap re-cost, not a
	// full Prepare.
	Shared        *StructureSpace
	Cached        bool
	OverlayCached bool

	// UsePlan is the plan number from OPTION (USEPLAN n), nil if absent.
	// It is shared by every Prepared of the same text and must not be
	// mutated.
	UsePlan *big.Int

	// epoch is the feedback epoch whose correction view Opt was costed
	// with. Executions tag their recorded observations with it, so
	// ratios measured against Opt's estimates are never folded on top
	// of corrections from a newer epoch.
	epoch uint64

	engine *Engine
}

// Engine returns the engine this statement was prepared against.
func (p *Prepared) Engine() *Engine { return p.engine }

// Fingerprint returns the canonical identity of the statement's
// structure (the counted space).
func (p *Prepared) Fingerprint() Fingerprint { return p.Shared.Fingerprint }

// Count returns the number of execution plans in the space.
func (p *Prepared) Count() *big.Int { return p.Space.Count() }

// OptimalPlan returns the optimizer's chosen plan under the current
// costing.
func (p *Prepared) OptimalPlan() *plan.Node { return p.Opt.Best }

// OptimalCost returns the optimizer's estimate for its chosen plan; the
// cost-distribution experiments normalize sampled costs by it.
func (p *Prepared) OptimalCost() float64 { return p.Opt.BestCost }

// OptimalRank answers "what number does the optimizer's own choice
// carry?". The rank is precomputed at overlay build; callers must not
// mutate it.
func (p *Prepared) OptimalRank() (*big.Int, error) { return p.Opt.OptimalRank, nil }

// Unrank returns plan number r.
func (p *Prepared) Unrank(r *big.Int) (*plan.Node, error) { return p.Space.Unrank(r) }

// Sampler returns a deterministic uniform plan sampler.
func (p *Prepared) Sampler(seed int64) (*core.Sampler, error) {
	return p.Space.NewSampler(seed)
}

// ScaledCost returns a plan's cost as a factor of the optimal plan's cost
// (1.0 = the optimum), the normalization used in Table 1 and Figure 4.
// It costs through plan.CostWith and performs no heap allocation, which
// keeps batched sampling loops allocation-free per plan.
func (p *Prepared) ScaledCost(n *plan.Node) (float64, error) {
	c, err := n.CostWith(p.Opt.Tables)
	if err != nil {
		return 0, err
	}
	return c / p.Opt.BestCost, nil
}

// ScaledCostWith is ScaledCost; buf is unused (see plan.CostBuf).
func (p *Prepared) ScaledCostWith(n *plan.Node, buf *plan.CostBuf) (float64, error) {
	return p.ScaledCost(n)
}

// Execute runs a specific plan from this query's space to completion
// with no resource limits (the trusted-caller path): ExecuteWith with
// zero limits.
func (p *Prepared) Execute(n *plan.Node) (*exec.Result, error) {
	return p.ExecuteWith(context.Background(), n, exec.Options{})
}

// ExecuteWith runs a specific plan from this query's space under ctx
// and the given Governor limits. Limit terminations come back as a
// truncated Result with nil error (see exec.RunWithOptions). Its scans
// read and record the structure's selection bitmaps, which change no
// result and no counter. Completed (non-truncated) executions record
// their observed per-operator cardinalities into the engine's feedback
// store; the corrections take effect only when ApplyFeedback folds
// them.
func (p *Prepared) ExecuteWith(ctx context.Context, n *plan.Node, opts exec.Options) (*exec.Result, error) {
	res, err := exec.RunWithOptions(ctx, n, p.engine.db, p.Shared.Query, p.Shared.sel, opts)
	if err == nil {
		p.engine.recordExecution(p, res)
	}
	return res, err
}

// Select resolves the plan a statement runs: rank when non-nil, else
// the statement's OPTION (USEPLAN n), else the optimizer's choice with
// its precomputed rank. It is the one resolution order — Session.Execute,
// /explain and planlab all go through it. The returned rank must not be
// mutated.
func (p *Prepared) Select(rank *big.Int) (*big.Int, *plan.Node, error) {
	if rank == nil {
		if p.UsePlan == nil {
			return p.Opt.OptimalRank, p.Opt.Best, nil
		}
		rank = p.UsePlan
	}
	if rank.Sign() < 0 || rank.Cmp(p.Count()) >= 0 {
		return nil, nil, fmt.Errorf("engine: plan %s out of range: query has %s plans", rank, p.Count())
	}
	pl, err := p.Space.Unrank(rank)
	if err != nil {
		return nil, nil, err
	}
	return rank, pl, nil
}

// Check is the paper's Section 4 test of one complete (untruncated)
// result against the optimizer plan's: the same multiset of rows, floats
// within relative tolerance 1e-9, and — when the ORDER BY keys are
// projected columns — that order, however the plan delivers it. The
// error reads as a predicate of the plan ("produced different rows",
// "order violation: …"), for callers that prefix the plan's rank.
func (p *Prepared) Check(res, reference *exec.Result) error {
	if !res.Equivalent(reference, 1e-9) {
		return errors.New("produced different rows")
	}
	if keyPos, desc, ok := p.outputOrdering(); ok {
		if err := res.CheckOrdered(keyPos, desc); err != nil {
			return fmt.Errorf("order violation: %w", err)
		}
	}
	return nil
}

// Execution is the product of Session.Execute: the prepared statement
// (riding the fingerprint cache exactly like Prepare), the
// plan that actually ran — identified by rank — and the governed
// result.
type Execution struct {
	Prepared   *Prepared
	Rank       *big.Int
	Plan       *plan.Node
	ScaledCost float64
	Result     *exec.Result
}

// Execute prepares (through the structure and overlay tiers —
// repeated executions of one query pay parsing, optimization and
// counting once, and re-costing only when statistics or feedback
// moved), resolves the
// plan with Prepared.Select(rank), and runs it under opts (zero limits
// mean unlimited). Completed executions feed observed cardinalities
// back into the engine's feedback store.
// Limit terminations return an Execution whose Result is truncated
// (Result.Stats.Truncated) with a nil error; a nil ctx is treated as
// context.Background().
func (s *Session) Execute(ctx context.Context, sqlText string, rank *big.Int, opts exec.Options) (*Execution, error) {
	p, err := s.Prepare(sqlText)
	if err != nil {
		return nil, err
	}
	rank, pl, err := p.Select(rank)
	if err != nil {
		return nil, err
	}
	sc, err := p.ScaledCost(pl)
	if err != nil {
		return nil, err
	}
	res, err := p.ExecuteWith(ctx, pl, opts)
	if err != nil {
		return nil, err
	}
	return &Execution{Prepared: p, Rank: rank, Plan: pl, ScaledCost: sc, Result: res}, nil
}

// outputOrdering maps the query's ORDER BY onto result column positions.
// ok is false when the query has no ORDER BY or a key is not a projected
// column (then order checking is not applicable).
func (p *Prepared) outputOrdering() (keyPos []int, desc []bool, ok bool) {
	q := p.Shared.Query
	if q.OrderBy.IsNone() {
		return nil, nil, false
	}
	for _, oc := range q.OrderBy {
		found := -1
		for i := range q.Projections {
			if q.Projections[i].Out.ID == oc.Col {
				found = i
				break
			}
		}
		if found < 0 {
			return nil, nil, false
		}
		keyPos = append(keyPos, found)
		desc = append(desc, oc.Desc)
	}
	return keyPos, desc, true
}
