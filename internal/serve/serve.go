// Package serve exposes the plan-space engine as a long-running HTTP
// service: counting, unranking, sampling, and explaining execution plans
// over JSON, for concurrent clients. The paper's interface is inherently
// service-shaped — once a query's space is counted, every per-call
// operation (count lookup, unrank, sample) is cheap — so the server
// fronts the engine's fingerprint-keyed SpaceCache: the first request
// for a (query, config) pays parse+bind+optimize+count, every later
// request for the same fingerprint is a cache hit, and concurrent
// requests for one cold fingerprint collapse into a single build.
//
// Endpoints (all request/response bodies are JSON):
//
//	POST /prepare       — parse, optimize, count; returns fingerprint + space parameters
//	POST /count         — plan count only
//	POST /unrank        — batch of plan numbers → plan trees with scaled costs
//	POST /sample        — k uniform plans through one batched sampling loop
//	                      (or the allocation-free wide limb tier past 2^64 plans)
//	POST /explain       — EXPLAIN tree of the plan /execute would run (rank / USEPLAN / optimal)
//	POST /execute       — run one plan (by rank / USEPLAN / optimal) under Governor limits
//	POST /execute_batch — sample k plans and execute each under a per-plan budget
//	POST /feedback/apply — fold observed execution cardinalities into correction
//	                      factors; invalidates cost overlays only (structures survive)
//	GET  /stats         — both cache tiers' counters (structure_bytes / overlay_bytes),
//	                      feedback-loop state, uptime, request counts
//
// The server fronts one plan-space cache with two tiers: the structure
// tier (counted spaces, keyed by canonical SQL + rules + schema) and,
// inside each structure's entry, the overlay tier (the costing of the
// newest statistics version and feedback epoch). Executions record per-operator observed vs.
// estimated cardinalities; POST /feedback/apply folds them and bumps
// the feedback epoch, after which the same query may execute a
// different, better-informed plan — the adaptive re-optimization loop
// over HTTP.
//
// Execution endpoints are resource-governed: a server-side Governor
// enforces wall-clock, output-row, and intermediate-row budgets on
// every plan (clients may tighten or loosen within server ceilings —
// see ExecLimits), so a pathological sampled plan terminates with a
// structured truncated/deadline_exceeded response instead of hanging
// the service. On shutdown the server drains: ListenAndServe stops
// accepting connections and lets the requests in flight finish.
//
// Plan numbers cross the wire as decimal strings: spaces beyond 2^53
// (Table 1 tops out at 4.4·10^12, Cartesian variants at 2.7·10^22)
// would be mangled by JSON number parsing.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"math/big"
	"net"
	"net/http"
	"runtime/debug"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/feedback"
	"repro/internal/histogram"
	"repro/internal/plan"
)

// Request caps: a request body is metadata-sized, one unrank batch is
// bounded like core's own batches, and one sample call is capped at the
// paper's experiment scale ×10.
const (
	maxBodyBytes   = 1 << 20
	maxUnrankBatch = 4096
	maxSampleK     = 100000
)

// Option configures a Server.
type Option func(*Server)

// WithQueryResolver lets requests name queries (e.g. "Q5") instead of
// carrying SQL text; resolve maps a name to SQL, reporting ok=false for
// unknown names. cmd/planserved installs the TPC-H catalog of queries.
func WithQueryResolver(resolve func(name string) (string, bool)) Option {
	return func(s *Server) { s.resolve = resolve }
}

// Server serves one engine's database and space cache over HTTP. All
// handlers are safe for concurrent use: prepared spaces are immutable
// and shared, and per-request state (samplers, arenas, rank buffers)
// stays request-local.
type Server struct {
	engine     *engine.Engine
	resolve    func(string) (string, bool)
	execLimits ExecLimits
	mux        *http.ServeMux
	start      time.Time

	reqs     [endpointCount]atomic.Uint64
	errCount atomic.Uint64
	panics   atomic.Uint64

	logf func(format string, args ...any) // where a recovered panic is logged
}

// endpoint indexes the request counters.
type endpoint int

const (
	epPrepare endpoint = iota
	epCount
	epUnrank
	epSample
	epExplain
	epExecute
	epExecuteBatch
	epFeedbackApply
	epStats
	endpointCount
)

var endpointNames = [endpointCount]string{"prepare", "count", "unrank", "sample", "explain", "execute", "execute_batch", "feedback_apply", "stats"}

// New returns a server over e.
func New(e *engine.Engine, opts ...Option) *Server {
	s := &Server{engine: e, start: time.Now(), mux: http.NewServeMux(), execLimits: DefaultExecLimits(), logf: log.Printf}
	for _, o := range opts {
		o(s)
	}
	s.mux.HandleFunc("POST /prepare", s.handlePrepare)
	s.mux.HandleFunc("POST /count", s.handleCount)
	s.mux.HandleFunc("POST /unrank", s.handleUnrank)
	s.mux.HandleFunc("POST /sample", s.handleSample)
	s.mux.HandleFunc("POST /explain", s.handleExplain)
	s.mux.HandleFunc("POST /execute", s.handleExecute)
	s.mux.HandleFunc("POST /execute_batch", s.handleExecuteBatch)
	s.mux.HandleFunc("POST /feedback/apply", s.handleFeedbackApply)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	return s
}

// Handler returns the root handler: the endpoints behind a recover. A
// handler that panics costs its own request only. The panic is counted
// in /stats (panics and errors) and its stack logged once, and when the
// handler had written nothing yet the client gets a 500 with the JSON
// error body; otherwise the response it began is all it gets.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tw := &trackingWriter{ResponseWriter: w}
		defer func() {
			v := recover()
			if v == nil {
				return
			}
			if v == http.ErrAbortHandler {
				panic(v) // net/http's sentinel: abort the response silently
			}
			s.panics.Add(1)
			s.logf("serve: panic serving %s %s: %v\n%s", r.Method, r.URL.Path, v, debug.Stack())
			if tw.wrote {
				s.errCount.Add(1)
				return
			}
			s.writeErr(w, http.StatusInternalServerError, "internal error; the server logged it")
		}()
		s.mux.ServeHTTP(tw, r)
	})
}

// trackingWriter records whether a handler has begun its response.
type trackingWriter struct {
	http.ResponseWriter
	wrote bool
}

func (w *trackingWriter) WriteHeader(code int) {
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *trackingWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

// QueryRequest is the common request envelope: the query (SQL text, or a
// name when a resolver is installed) plus the session configuration.
type QueryRequest struct {
	SQL   string `json:"sql,omitempty"`
	Query string `json:"query,omitempty"` // named query, via the resolver
	Cross bool   `json:"cross,omitempty"` // allow Cartesian products
}

type errorResponse struct {
	Error string `json:"error"`
}

func (s *Server) writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	s.errCount.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(errorResponse{Error: fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// decode reads a JSON body into v.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	lw := w
	if tw, ok := w.(*trackingWriter); ok {
		// MaxBytesReader closes the connection after an oversized body
		// through a hook only net/http's own writer has.
		lw = tw.ResponseWriter
	}
	dec := json.NewDecoder(http.MaxBytesReader(lw, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		s.writeErr(w, http.StatusBadRequest, "invalid request body: %v", err)
		return false
	}
	return true
}

// resolveSQL maps a request to executable SQL text: the sql field
// verbatim, or the named query through the resolver.
func (s *Server) resolveSQL(w http.ResponseWriter, q QueryRequest) (string, bool) {
	sqlText := q.SQL
	switch {
	case sqlText != "" && q.Query != "":
		s.writeErr(w, http.StatusBadRequest, "provide sql or query, not both")
		return "", false
	case sqlText == "" && q.Query == "":
		s.writeErr(w, http.StatusBadRequest, "provide sql text or a query name")
		return "", false
	case q.Query != "":
		if s.resolve == nil {
			s.writeErr(w, http.StatusBadRequest, "named queries are not configured; send sql text")
			return "", false
		}
		t, ok := s.resolve(q.Query)
		if !ok {
			s.writeErr(w, http.StatusNotFound, "unknown query %q", q.Query)
			return "", false
		}
		sqlText = t
	}
	return sqlText, true
}

// prepare resolves and prepares the request's query through the session
// pipeline — the single Prepare path all endpoints share.
func (s *Server) prepare(w http.ResponseWriter, q QueryRequest) (*engine.Prepared, bool) {
	sqlText, ok := s.resolveSQL(w, q)
	if !ok {
		return nil, false
	}
	p, err := s.engine.Session(engine.WithCartesian(q.Cross)).Prepare(sqlText)
	if err != nil {
		s.writeErr(w, http.StatusUnprocessableEntity, "prepare: %v", err)
		return nil, false
	}
	return p, true
}

// parseRank parses a request's decimal plan number; the empty string is
// no number (nil). A malformed or negative number answers 400.
func (s *Server) parseRank(w http.ResponseWriter, text string) (*big.Int, bool) {
	if text == "" {
		return nil, true
	}
	rank, ok := new(big.Int).SetString(text, 10)
	if !ok || rank.Sign() < 0 {
		s.writeErr(w, http.StatusBadRequest, "invalid plan number %q", text)
		return nil, false
	}
	return rank, true
}

// SpaceInfo describes a prepared space; every space-touching response
// embeds it. cached reports a structure-cache hit (the counted space
// was reused); overlay_cached a costing-cache hit — a cached=true,
// overlay_cached=false response paid only a cheap re-cost (statistics
// refresh or feedback application since the last request).
type SpaceInfo struct {
	Fingerprint   string `json:"fingerprint"`
	Count         string `json:"count"`
	Arithmetic    string `json:"arithmetic"` // "uint64" or "wide"
	Cached        bool   `json:"cached"`
	OverlayCached bool   `json:"overlay_cached"`
}

func spaceInfo(p *engine.Prepared) SpaceInfo {
	return SpaceInfo{
		Fingerprint:   p.Fingerprint().String(),
		Count:         p.Count().String(),
		Arithmetic:    p.Space.Arithmetic(),
		Cached:        p.Cached,
		OverlayCached: p.OverlayCached,
	}
}

// PrepareResponse reports the counted space's parameters.
type PrepareResponse struct {
	SpaceInfo
	Canonical   string  `json:"canonical_sql"`
	Groups      int     `json:"groups"`
	PhysicalOps int     `json:"physical_operators"`
	EnforcerOps int     `json:"enforcer_operators"`
	OptimalCost float64 `json:"optimal_cost"`
	OptimalRank string  `json:"optimal_rank"`
	PrepareMs   float64 `json:"prepare_ms"`
}

func (s *Server) handlePrepare(w http.ResponseWriter, r *http.Request) {
	s.reqs[epPrepare].Add(1)
	var req QueryRequest
	if !s.decode(w, r, &req) {
		return
	}
	start := time.Now()
	p, ok := s.prepare(w, req)
	if !ok {
		return
	}
	st := p.Shared.MemoStats
	writeJSON(w, PrepareResponse{
		SpaceInfo:   spaceInfo(p),
		Canonical:   p.Shared.Canonical,
		Groups:      st.Groups,
		PhysicalOps: st.PhysicalOps,
		EnforcerOps: st.EnforcerOps,
		OptimalCost: p.OptimalCost(),
		OptimalRank: p.Opt.OptimalRank.String(),
		PrepareMs:   float64(time.Since(start).Microseconds()) / 1000,
	})
}

func (s *Server) handleCount(w http.ResponseWriter, r *http.Request) {
	s.reqs[epCount].Add(1)
	var req QueryRequest
	if !s.decode(w, r, &req) {
		return
	}
	p, ok := s.prepare(w, req)
	if !ok {
		return
	}
	writeJSON(w, spaceInfo(p))
}

// UnrankRequest asks for a batch of plans by number.
type UnrankRequest struct {
	QueryRequest
	Ranks []string `json:"ranks"`
}

// PlanResponse is one materialized plan.
type PlanResponse struct {
	Rank       string  `json:"rank"`
	ScaledCost float64 `json:"scaled_cost"`
	Tree       string  `json:"tree"`
}

// UnrankResponse carries the batch, in request order.
type UnrankResponse struct {
	SpaceInfo
	Plans []PlanResponse `json:"plans"`
}

func (s *Server) handleUnrank(w http.ResponseWriter, r *http.Request) {
	s.reqs[epUnrank].Add(1)
	var req UnrankRequest
	if !s.decode(w, r, &req) {
		return
	}
	if len(req.Ranks) == 0 {
		s.writeErr(w, http.StatusBadRequest, "ranks is empty")
		return
	}
	if len(req.Ranks) > maxUnrankBatch {
		s.writeErr(w, http.StatusBadRequest, "batch of %d ranks exceeds the cap of %d", len(req.Ranks), maxUnrankBatch)
		return
	}
	p, ok := s.prepare(w, req.QueryRequest)
	if !ok {
		return
	}
	resp := UnrankResponse{SpaceInfo: spaceInfo(p), Plans: make([]PlanResponse, 0, len(req.Ranks))}
	var arena core.Arena
	var tree []byte // each plan renders here before its string is taken
	for _, text := range req.Ranks {
		rank, ok := s.parseRank(w, text)
		if !ok {
			return
		}
		if rank == nil {
			s.writeErr(w, http.StatusBadRequest, "invalid plan number %q", text)
			return
		}
		// One arena serves the whole batch: on the uint64 and wide tiers
		// each plan decomposes into reused node/limb buffers (it is
		// rendered before the next iteration overwrites it).
		pl, err := p.Space.UnrankBigInto(rank, &arena)
		if err != nil {
			s.writeErr(w, http.StatusUnprocessableEntity, "unrank %s: %v", rank, err)
			return
		}
		sc, err := p.ScaledCost(pl)
		if err != nil {
			s.writeErr(w, http.StatusInternalServerError, "costing plan %s: %v", rank, err)
			return
		}
		tree = pl.AppendTo(tree[:0])
		resp.Plans = append(resp.Plans, PlanResponse{Rank: rank.String(), ScaledCost: sc, Tree: string(tree)})
	}
	writeJSON(w, resp)
}

// SampleRequest asks for K uniform plans.
type SampleRequest struct {
	QueryRequest
	K            int   `json:"k"`
	Seed         int64 `json:"seed"`
	IncludePlans bool  `json:"include_plans,omitempty"` // also render plan trees (one string per plan)
}

// SampleSummary aggregates the sampled scaled costs the way Table 1
// does.
type SampleSummary struct {
	Min       float64 `json:"min"`
	Mean      float64 `json:"mean"`
	Max       float64 `json:"max"`
	WithinTwo float64 `json:"within_two"` // fraction of plans <= 2x optimum
	WithinTen float64 `json:"within_ten"` // fraction <= 10x optimum
}

// SampleResponse carries the drawn ranks with their scaled costs;
// ranks[i] and scaled_costs[i] (and plans[i], when requested) describe
// the same draw.
type SampleResponse struct {
	SpaceInfo
	K           int           `json:"k"`
	Seed        int64         `json:"seed"`
	Ranks       []string      `json:"ranks"`
	ScaledCosts []float64     `json:"scaled_costs"`
	Summary     SampleSummary `json:"summary"`
	Plans       []string      `json:"plans,omitempty"`
	SampleMs    float64       `json:"sample_ms"`
}

func (s *Server) handleSample(w http.ResponseWriter, r *http.Request) {
	s.reqs[epSample].Add(1)
	var req SampleRequest
	if !s.decode(w, r, &req) {
		return
	}
	if req.K <= 0 || req.K > maxSampleK {
		s.writeErr(w, http.StatusBadRequest, "k = %d out of range (0, %d]", req.K, maxSampleK)
		return
	}
	p, ok := s.prepare(w, req.QueryRequest)
	if !ok {
		return
	}
	start := time.Now()
	ranks := make([]string, req.K)
	costs := make([]float64, req.K)
	var plans []string
	if req.IncludePlans {
		plans = make([]string, req.K)
	}

	smp, err := p.Sampler(req.Seed)
	if err != nil {
		s.writeErr(w, http.StatusUnprocessableEntity, "sampler: %v", err)
		return
	}
	if err := sampleLoop(p, smp, ranks, costs, plans); err != nil {
		s.writeErr(w, http.StatusInternalServerError, "sampling: %v", err)
		return
	}
	sum := histogram.Summarize(costs)
	writeJSON(w, SampleResponse{
		SpaceInfo:   spaceInfo(p),
		K:           req.K,
		Seed:        req.Seed,
		Ranks:       ranks,
		ScaledCosts: costs,
		Summary: SampleSummary{
			Min: sum.Min, Mean: sum.Mean, Max: sum.Max,
			WithinTwo: sum.WithinTwo, WithinTen: sum.WithinTen,
		},
		Plans:    plans,
		SampleMs: float64(time.Since(start).Microseconds()) / 1000,
	})
}

// sampleLoop draws len(ranks) plans through Sampler.Each on whichever
// tier serves the space: one reused arena for unranking, the
// allocation-free cost fold, and allocation-free decimal rendering of
// each rank.
// ranks and costs are the response payload; beyond them the loop
// allocates nothing per plan after warm-up. When plans is non-nil
// (same length as ranks) each plan's tree is rendered too, into one
// reused buffer, which costs one string per plan.
func sampleLoop(p *engine.Prepared, smp *core.Sampler, ranks []string, costs []float64, plans []string) error {
	var arena core.Arena
	var dec core.WideArena
	var numBuf [64]byte // any rank of a space a process can count
	var tree []byte
	return smp.Each(len(ranks), &arena, func(i int, rk []uint64, pl *plan.Node) error {
		sc, err := p.ScaledCost(pl)
		if err != nil {
			return err
		}
		costs[i] = sc
		dec.Reset()
		ranks[i] = string(core.AppendWideDecimal(numBuf[:0], rk, &dec))
		if plans != nil {
			tree = pl.AppendTo(tree[:0])
			plans[i] = string(tree)
		}
		return nil
	})
}

// ExplainRequest asks for the EXPLAIN tree of the plan Prepared.Select
// resolves — the one /execute would run: the given plan number, else
// the SQL's OPTION (USEPLAN n), else the optimizer's choice.
type ExplainRequest struct {
	QueryRequest
	Rank string `json:"rank,omitempty"`
}

// ExplainResponse is the rendered tree with its cost and rank; optimal
// reports whether the rank is the optimizer's.
type ExplainResponse struct {
	SpaceInfo
	Rank       string  `json:"rank"`
	Cost       float64 `json:"cost"`
	ScaledCost float64 `json:"scaled_cost"`
	Optimal    bool    `json:"optimal"`
	Tree       string  `json:"tree"`
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	s.reqs[epExplain].Add(1)
	var req ExplainRequest
	if !s.decode(w, r, &req) {
		return
	}
	rank, ok := s.parseRank(w, req.Rank)
	if !ok {
		return
	}
	p, ok := s.prepare(w, req.QueryRequest)
	if !ok {
		return
	}
	rank, pl, err := p.Select(rank)
	if err != nil {
		s.writeErr(w, http.StatusUnprocessableEntity, "explain: %v", err)
		return
	}
	tree, cost, err := p.Explain(pl)
	if err != nil {
		s.writeErr(w, http.StatusInternalServerError, "explain: %v", err)
		return
	}
	writeJSON(w, ExplainResponse{
		SpaceInfo:  spaceInfo(p),
		Rank:       rank.String(),
		Cost:       cost,
		ScaledCost: cost / p.OptimalCost(),
		Optimal:    rank.Cmp(p.Opt.OptimalRank) == 0,
		Tree:       tree,
	})
}

// FeedbackApplyResponse reports one fold of recorded execution
// observations into active correction factors.
type FeedbackApplyResponse struct {
	Epoch       uint64                `json:"epoch"`       // new feedback epoch
	Folded      int                   `json:"folded"`      // correction keys updated by this fold
	Corrections []feedback.Correction `json:"corrections"` // all active factors, sorted by key
	Invalidated uint64                `json:"invalidated"` // cost overlays dropped so far
}

// handleFeedbackApply folds all observations recorded by /execute and
// /execute_batch since the last fold into active cardinality correction
// factors and bumps the feedback epoch. Only cost overlays are
// invalidated — every counted structure stays cached — so the next
// /execute of an affected query re-costs in place, may select a
// different (better-informed) optimal rank, and runs that plan.
func (s *Server) handleFeedbackApply(w http.ResponseWriter, r *http.Request) {
	s.reqs[epFeedbackApply].Add(1)
	folded, epoch := s.engine.ApplyFeedback()
	writeJSON(w, FeedbackApplyResponse{
		Epoch:       epoch,
		Folded:      folded,
		Corrections: s.engine.Feedback().Corrections(),
		Invalidated: s.engine.Overlays().Stats().Invalidations,
	})
}

// StatsResponse reports service health: both cache tiers' effectiveness
// and resident bytes (structure_bytes prices counted spaces and the
// statement-text aliases charged to them, overlay_bytes the cost
// overlays — disjoint by construction, so they add up), the feedback
// loop's counters, request counts, and the catalog versions the tiers
// are keyed on. cache.text_hits counts the structure hits answered by a
// statement-text alias without parsing; panics counts the handler
// panics the server recovered from, each also counted in errors.
type StatsResponse struct {
	UptimeSeconds  float64                  `json:"uptime_seconds"`
	Cache          engine.CacheStats        `json:"cache"`
	Overlays       engine.OverlayCacheStats `json:"overlays"`
	StructureBytes int64                    `json:"structure_bytes"`
	OverlayBytes   int64                    `json:"overlay_bytes"`
	Feedback       feedback.Stats           `json:"feedback"`
	Requests       map[string]uint64        `json:"requests"`
	Errors         uint64                   `json:"errors"`
	Panics         uint64                   `json:"panics"`
	CatalogID      uint64                   `json:"catalog_id"`
	CatalogVersion uint64                   `json:"catalog_version"`
	SchemaVersion  uint64                   `json:"catalog_schema_version"`
	StatsVersion   uint64                   `json:"catalog_stats_version"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.reqs[epStats].Add(1)
	reqs := make(map[string]uint64, endpointCount)
	for i := endpoint(0); i < endpointCount; i++ {
		reqs[endpointNames[i]] = s.reqs[i].Load()
	}
	cat := s.engine.DB().Catalog()
	cache := s.engine.Cache().Stats()
	overlays := s.engine.Overlays().Stats()
	writeJSON(w, StatsResponse{
		UptimeSeconds:  time.Since(s.start).Seconds(),
		Cache:          cache,
		Overlays:       overlays,
		StructureBytes: cache.BytesCached,
		OverlayBytes:   overlays.BytesCached,
		Feedback:       s.engine.Feedback().Snapshot(),
		Requests:       reqs,
		Errors:         s.errCount.Load(),
		Panics:         s.panics.Load(),
		CatalogID:      cat.ID(),
		CatalogVersion: cat.Version(),
		SchemaVersion:  cat.SchemaVersion(),
		StatsVersion:   cat.StatsVersion(),
	})
}

// Connection timeouts of the listening server. A request's headers and
// its body (at most 1 MiB) must arrive within readTimeout, so a client
// that trickles bytes cannot hold a handler goroutine; an idle
// keep-alive connection closes after idleTimeout.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 10 * time.Second
	idleTimeout       = 2 * time.Minute
	// writeMargin is what a response may take beyond the longest
	// execution the limits allow: reading the body, preparing (a cold
	// structure build included) and encoding.
	writeMargin = 30 * time.Second
)

// httpServer is the http.Server ListenAndServe runs. Its WriteTimeout
// follows the execution limits: the longest request an ExecLimits
// allows is a whole /execute_batch (MaxBatchTime) or one /execute
// (MaxTimeout), plus writeMargin; with no batch ceiling there is no
// write timeout either.
func (s *Server) httpServer(addr string) *http.Server {
	var write time.Duration
	if l := s.execLimits; l.MaxBatchTime > 0 {
		write = max(l.MaxBatchTime, l.MaxTimeout) + writeMargin
	}
	return &http.Server{
		Addr:              addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      write,
		IdleTimeout:       idleTimeout,
	}
}

// ListenAndServe runs the server on addr until the listener fails or
// ctx ends (see serve). It exists for cmd/planserved; tests drive
// Handler through httptest, and serve through a listener of their own.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.serve(ctx, ln)
}

// serve runs the server on ln until the listener fails or ctx ends.
// When ctx ends, it stops accepting connections, waits for the requests
// in flight to finish and returns nil. The wait is bounded by the write
// timeout, the longest a response may take (unbounded when there is
// none); requests still running then are cut off and the error says so.
func (s *Server) serve(ctx context.Context, ln net.Listener) error {
	srv := s.httpServer(ln.Addr().String())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	select {
	case err := <-served:
		return err
	case <-ctx.Done():
	}
	drain := context.WithoutCancel(ctx)
	if srv.WriteTimeout > 0 {
		var cancel context.CancelFunc
		drain, cancel = context.WithTimeout(drain, srv.WriteTimeout)
		defer cancel()
	}
	if err := srv.Shutdown(drain); err != nil {
		srv.Close()
		return fmt.Errorf("serve: drain: %w", err)
	}
	return nil
}
