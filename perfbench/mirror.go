package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/big"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/histogram"
	"repro/internal/opt"
	"repro/internal/plan"
	"repro/internal/serve"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/tpch"
)

// mirror replays requests through the same public calls the serve
// handlers make, in the same order, with a span around each call into
// another module. Its responses are the handler's byte for byte (apart
// from wall-clock fields), which the traced run checks by comparing the
// two passes' tallies.
//
// Two measurements cannot sit inside the handler without changing it:
// the parse inside Session.Prepare and the bind → expand → count stages
// of a structure miss. The mirror re-runs those stages on the same input
// after the handler span closes ("shadow" spans, excluded from the
// handler's time and coverage).
type mirror struct {
	e      *engine.Engine
	db     *storage.DB
	limits serve.ExecLimits
	tr     *tracer

	buf     bytes.Buffer
	status  int
	excl    time.Duration // instrumentation time inside the handler span
	shadows []shadowJob

	cold coldStats
}

type shadowJob struct {
	sql   string
	cross bool
	cold  bool
	p     *engine.Prepared
}

// coldStats sums the shadow replays of every structure miss.
type coldStats struct {
	builds                 int
	bind, structure, count time.Duration
	groups, exprs          int
	inPass                 time.Duration // shadow build time of misses inside the traced pass
}

func newMirror(s *server, tr *tracer) *mirror {
	return &mirror{e: s.engine, db: s.db, limits: serve.DefaultExecLimits(), tr: tr}
}

// serve answers r like the handler would, returning status and body.
func (m *mirror) serve(r *request) (int, []byte) {
	m.buf.Reset()
	m.status = http.StatusOK
	m.excl = 0
	start := time.Now()
	switch r.ep {
	case epPrepare:
		m.prepareEndpoint(r.body)
	case epSample:
		m.sampleEndpoint(r.body)
	case epUnrank:
		m.unrankEndpoint(r.body)
	case epExecute:
		m.executeEndpoint(r.body)
	case epFeedbackApply:
		m.applyEndpoint()
	}
	m.tr.add("handler", "", endpointPaths[r.ep], start, time.Since(start)-m.excl, 1)
	for _, job := range m.shadows {
		m.shadow(job)
	}
	m.shadows = m.shadows[:0]
	m.tr.next()
	return m.status, m.buf.Bytes()
}

func (m *mirror) fail(code int, format string, args ...any) {
	m.buf.Reset()
	m.status = code
	json.NewEncoder(&m.buf).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// write is serve's writeJSON.
func (m *mirror) write(v any) {
	sp := m.tr.begin()
	json.NewEncoder(&m.buf).Encode(v)
	m.tr.end("serve.json", sp, 1)
}

// decode is serve's request decoding.
func (m *mirror) decode(body []byte, v any) bool {
	sp := m.tr.begin()
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	m.tr.end("serve.decode", sp, 1)
	if err != nil {
		m.fail(http.StatusBadRequest, "invalid request body: %v", err)
		return false
	}
	return true
}

func (m *mirror) resolve(q serve.QueryRequest) (string, bool) {
	switch {
	case q.SQL != "" && q.Query != "":
		m.fail(http.StatusBadRequest, "provide sql or query, not both")
	case q.SQL == "" && q.Query == "":
		m.fail(http.StatusBadRequest, "provide sql text or a query name")
	case q.Query != "":
		t, ok := tpch.Query(q.Query)
		if !ok {
			m.fail(http.StatusNotFound, "unknown query %q", q.Query)
		}
		return t, ok
	default:
		return q.SQL, true
	}
	return "", false
}

// prepare is Session.Prepare under an engine.prepare span labelled by
// the cache outcome; the parse (and, on a structure miss, the build) is
// queued for a shadow replay.
func (m *mirror) prepare(q serve.QueryRequest) *engine.Prepared {
	sqlText, ok := m.resolve(q)
	if !ok {
		return nil
	}
	sp := m.tr.begin()
	p, err := m.e.Session(engine.WithCartesian(q.Cross)).Prepare(sqlText)
	kind := "error"
	if err == nil {
		kind = prepareKind(p)
	}
	m.tr.endKind("engine.prepare", kind, sp, 1)
	if err != nil {
		m.fail(http.StatusUnprocessableEntity, "prepare: %v", err)
		return nil
	}
	m.shadows = append(m.shadows, shadowJob{sql: sqlText, cross: q.Cross, cold: !p.Cached, p: p})
	return p
}

func prepareKind(p *engine.Prepared) string {
	switch {
	case !p.Cached:
		return "cold"
	case !p.OverlayCached:
		return "recost"
	}
	return "hit"
}

// shadow re-runs the parse of a prepared request and, for a structure
// miss, its bind → expand → count stages, each under its own span.
func (m *mirror) shadow(job shadowJob) {
	sp := m.tr.begin()
	stmt, err := sql.Parse(job.sql)
	m.tr.endShadow("sql.parse", "engine.prepare", sp, 1)
	if err != nil || !job.cold {
		return
	}
	sp = m.tr.begin()
	q, err := algebra.Build(stmt, m.db.Catalog())
	bind := m.tr.endShadow("algebra.bind", "engine.prepare", sp, 1)
	if err != nil {
		return
	}
	sp = m.tr.begin()
	st, err := opt.BuildStructure(q, m.e.Session(engine.WithCartesian(job.cross)).Options().Rules)
	structure := m.tr.endShadow("opt.structure", "engine.prepare", sp, 1)
	if err != nil {
		return
	}
	sp = m.tr.begin()
	_, err = core.Prepare(st.Memo)
	count := m.tr.endShadow("core.count", "engine.prepare", sp, 1)
	if err != nil {
		return
	}
	ms := job.p.Shared.Memo.Stats()
	m.cold.builds++
	m.cold.bind += bind
	m.cold.structure += structure
	m.cold.count += count
	m.cold.groups += ms.Groups
	m.cold.exprs += ms.LogicalOps + ms.PhysicalOps
	if m.tr.recording() {
		m.cold.inPass += bind + structure + count
	}
}

func (m *mirror) spaceInfo(p *engine.Prepared) serve.SpaceInfo {
	sp := m.tr.begin()
	info := serve.SpaceInfo{
		Fingerprint:   p.Fingerprint().String(),
		Count:         p.Count().String(),
		Arithmetic:    p.Space.Arithmetic(),
		Cached:        p.Cached,
		OverlayCached: p.OverlayCached,
	}
	m.tr.end("serve.render", sp, 1)
	return info
}

func (m *mirror) prepareEndpoint(body []byte) {
	var req serve.QueryRequest
	if !m.decode(body, &req) {
		return
	}
	start := time.Now()
	p := m.prepare(req)
	if p == nil {
		return
	}
	rank, _ := p.OptimalRank()
	sp := m.tr.begin()
	st := p.Opt.Memo.Stats()
	m.tr.end("memo.stats", sp, 1)
	info := m.spaceInfo(p)
	sp = m.tr.begin()
	rankText := rank.String()
	m.tr.end("serve.render", sp, 1)
	m.write(serve.PrepareResponse{
		SpaceInfo:   info,
		Canonical:   p.Shared.Canonical,
		Groups:      st.Groups,
		PhysicalOps: st.PhysicalOps,
		EnforcerOps: st.EnforcerOps,
		OptimalCost: p.OptimalCost(),
		OptimalRank: rankText,
		PrepareMs:   float64(time.Since(start).Microseconds()) / 1000,
	})
}

func (m *mirror) sampleEndpoint(body []byte) {
	var req serve.SampleRequest
	if !m.decode(body, &req) {
		return
	}
	if req.K <= 0 || req.K > 100000 {
		m.fail(http.StatusBadRequest, "k = %d out of range (0, %d]", req.K, 100000)
		return
	}
	p := m.prepare(req.QueryRequest)
	if p == nil {
		return
	}
	start := time.Now()
	ranks := make([]string, req.K)
	costs := make([]float64, req.K)
	sp := m.tr.begin()
	smp, err := p.Sampler(req.Seed)
	m.tr.end("core.sampler", sp, 1)
	if err != nil {
		m.fail(http.StatusUnprocessableEntity, "sampler: %v", err)
		return
	}
	switch {
	case smp.Fast():
		err = m.sampleFast(p, smp, ranks, costs)
	case smp.Wide():
		err = m.sampleWide(p, smp, ranks, costs)
	default:
		err = fmt.Errorf("the math/big tier is not mirrored")
	}
	if err != nil {
		m.fail(http.StatusInternalServerError, "sampling: %v", err)
		return
	}
	sp = m.tr.begin()
	sum := histogram.Summarize(costs)
	m.tr.end("histogram.summarize", sp, 1)
	info := m.spaceInfo(p)
	m.write(serve.SampleResponse{
		SpaceInfo:   info,
		K:           req.K,
		Seed:        req.Seed,
		Ranks:       ranks,
		ScaledCosts: costs,
		Summary: serve.SampleSummary{
			Min: sum.Min, Mean: sum.Mean, Max: sum.Max,
			WithinTwo: sum.WithinTwo, WithinTen: sum.WithinTen,
		},
		SampleMs: float64(time.Since(start).Microseconds()) / 1000,
	})
}

// loopSpans accumulates the per-plan calls of one sampling or unranking
// loop; each becomes one aggregated span with its call count.
type loopSpans struct {
	start                       time.Time
	ranks, unrank, cost, render time.Duration
	rankCalls, plans            int
}

func (m *mirror) flush(l *loopSpans) {
	if l.rankCalls > 0 {
		m.tr.add("core.sample_ranks", "", "", l.start, l.ranks, l.rankCalls)
	}
	m.tr.add("core.unrank", "", "", l.start, l.unrank, l.plans)
	m.tr.add("plan.cost", "", "", l.start, l.cost, l.plans)
	m.tr.add("serve.render", "", "", l.start, l.render, l.plans)
}

// sampleFast mirrors serve's uint64-tier sampling loop.
func (m *mirror) sampleFast(p *engine.Prepared, smp *core.Sampler, ranks []string, costs []float64) error {
	const chunk = 1024
	var raw [chunk]uint64
	var arena core.Arena
	var costBuf plan.CostBuf
	var numBuf [20]byte
	l := loopSpans{start: time.Now()}
	defer m.flush(&l)
	for off := 0; off < len(ranks); off += chunk {
		n := min(len(ranks)-off, chunk)
		t0 := time.Since(l.start)
		if err := smp.SampleRanks(raw[:n]); err != nil {
			return err
		}
		t1 := time.Since(l.start)
		l.ranks += t1 - t0
		l.rankCalls += n
		for i, rk := range raw[:n] {
			pl, err := p.Space.UnrankInto(rk, &arena)
			if err != nil {
				return err
			}
			t2 := time.Since(l.start)
			sc, err := p.ScaledCostWith(pl, &costBuf)
			if err != nil {
				return err
			}
			t3 := time.Since(l.start)
			costs[off+i] = sc
			ranks[off+i] = string(strconv.AppendUint(numBuf[:0], rk, 10))
			t4 := time.Since(l.start)
			l.unrank += t2 - t1
			l.cost += t3 - t2
			l.render += t4 - t3
			l.plans++
			t1 = t4
		}
	}
	return nil
}

// sampleWide mirrors serve's wide-tier sampling loop.
func (m *mirror) sampleWide(p *engine.Prepared, smp *core.Sampler, ranks []string, costs []float64) error {
	const chunk = 256
	stride := p.Space.RankLimbs()
	raw := make([]uint64, chunk*stride)
	var arena core.Arena
	var dec core.WideArena
	var costBuf plan.CostBuf
	decBuf := make([]byte, 0, 64)
	l := loopSpans{start: time.Now()}
	defer m.flush(&l)
	for off := 0; off < len(ranks); off += chunk {
		n := min(len(ranks)-off, chunk)
		t0 := time.Since(l.start)
		if err := smp.SampleRanksWideInto(raw, n); err != nil {
			return err
		}
		t1 := time.Since(l.start)
		l.ranks += t1 - t0
		l.rankCalls += n
		for i := 0; i < n; i++ {
			rk := core.WideNorm(raw[i*stride : (i+1)*stride])
			pl, err := p.Space.UnrankWideInto(rk, &arena)
			if err != nil {
				return err
			}
			t2 := time.Since(l.start)
			sc, err := p.ScaledCostWith(pl, &costBuf)
			if err != nil {
				return err
			}
			t3 := time.Since(l.start)
			costs[off+i] = sc
			dec.Reset()
			ranks[off+i] = string(core.AppendWideDecimal(decBuf[:0], rk, &dec))
			t4 := time.Since(l.start)
			l.unrank += t2 - t1
			l.cost += t3 - t2
			l.render += t4 - t3
			l.plans++
			t1 = t4
		}
	}
	return nil
}

func (m *mirror) unrankEndpoint(body []byte) {
	var req serve.UnrankRequest
	if !m.decode(body, &req) {
		return
	}
	if len(req.Ranks) == 0 || len(req.Ranks) > 4096 {
		m.fail(http.StatusBadRequest, "batch of %d ranks out of range", len(req.Ranks))
		return
	}
	p := m.prepare(req.QueryRequest)
	if p == nil {
		return
	}
	resp := serve.UnrankResponse{SpaceInfo: m.spaceInfo(p), Plans: make([]serve.PlanResponse, 0, len(req.Ranks))}
	var costBuf plan.CostBuf
	var arena core.Arena
	l := loopSpans{start: time.Now()}
	var t0 time.Duration
	for _, text := range req.Ranks {
		rank, ok := new(big.Int).SetString(text, 10)
		if !ok || rank.Sign() < 0 {
			m.flush(&l)
			m.fail(http.StatusBadRequest, "invalid plan number %q", text)
			return
		}
		t1 := time.Since(l.start)
		pl, err := p.Space.UnrankBigInto(rank, &arena)
		if err != nil {
			m.flush(&l)
			m.fail(http.StatusUnprocessableEntity, "unrank %s: %v", rank, err)
			return
		}
		t2 := time.Since(l.start)
		sc, err := p.ScaledCostWith(pl, &costBuf)
		if err != nil {
			m.flush(&l)
			m.fail(http.StatusInternalServerError, "costing plan %s: %v", rank, err)
			return
		}
		t3 := time.Since(l.start)
		resp.Plans = append(resp.Plans, serve.PlanResponse{Rank: rank.String(), ScaledCost: sc, Tree: pl.String()})
		t4 := time.Since(l.start)
		l.render += t1 - t0 + t4 - t3
		l.unrank += t2 - t1
		l.cost += t3 - t2
		l.plans++
		t0 = t4
	}
	m.flush(&l)
	m.write(resp)
}

// clamp is serve's ExecLimits.clamp.
func clamp(l serve.ExecLimits, timeoutMs, maxRows, maxWork int64) exec.Options {
	o := exec.Options{Timeout: l.DefaultTimeout, MaxRows: l.DefaultMaxRows, MaxIntermediateRows: l.DefaultMaxWork}
	if timeoutMs > 0 {
		if maxMs := int64(l.MaxTimeout / time.Millisecond); l.MaxTimeout > 0 && timeoutMs > maxMs {
			timeoutMs = maxMs
		}
		o.Timeout = time.Duration(timeoutMs) * time.Millisecond
	}
	if l.MaxTimeout > 0 && o.Timeout > l.MaxTimeout {
		o.Timeout = l.MaxTimeout
	}
	if maxRows > 0 {
		o.MaxRows = maxRows
	}
	if l.MaxRows > 0 && o.MaxRows > l.MaxRows {
		o.MaxRows = l.MaxRows
	}
	if maxWork > 0 {
		o.MaxIntermediateRows = maxWork
	}
	if l.MaxWork > 0 && o.MaxIntermediateRows > l.MaxWork {
		o.MaxIntermediateRows = l.MaxWork
	}
	return o
}

// executeEndpoint mirrors /execute, with Session.Execute decomposed into
// the calls it makes: Prepare, plan resolution, ScaledCost, ExecuteWith.
func (m *mirror) executeEndpoint(body []byte) {
	var req serve.ExecuteRequest
	if !m.decode(body, &req) {
		return
	}
	opts := clamp(m.limits, req.TimeoutMs, req.MaxRows, req.MaxIntermediateRows)
	var rank *big.Int
	if req.Rank != "" {
		var ok bool
		if rank, ok = new(big.Int).SetString(req.Rank, 10); !ok || rank.Sign() < 0 {
			m.fail(http.StatusBadRequest, "invalid plan number %q", req.Rank)
			return
		}
	}
	p := m.prepare(req.QueryRequest)
	if p == nil {
		return
	}
	var pl *plan.Node
	var err error
	switch {
	case rank != nil:
		if rank.Cmp(p.Count()) >= 0 {
			m.fail(http.StatusUnprocessableEntity, "execute: plan %s out of range", rank)
			return
		}
		sp := m.tr.begin()
		pl, err = p.Unrank(rank)
		m.tr.end("core.unrank", sp, 1)
	case p.UsePlan != nil:
		rank = p.UsePlan
		sp := m.tr.begin()
		pl, err = p.Unrank(rank)
		m.tr.end("core.unrank", sp, 1)
	default:
		pl = p.OptimalPlan()
		rank, err = p.OptimalRank()
	}
	if err != nil {
		m.fail(http.StatusUnprocessableEntity, "execute: %v", err)
		return
	}
	sp := m.tr.begin()
	sc, err := p.ScaledCost(pl)
	m.tr.end("plan.cost", sp, 1)
	if err != nil {
		m.fail(http.StatusUnprocessableEntity, "execute: %v", err)
		return
	}

	// Allocation counters need a stop-the-world read on either side of
	// the run; that time is taken out of the handler span.
	var before, after runtime.MemStats
	t := time.Now()
	runtime.ReadMemStats(&before)
	m.excl += time.Since(t)
	sp = m.tr.begin()
	res, err := p.ExecuteWith(context.Background(), pl, opts)
	d := time.Since(sp)
	t = time.Now()
	runtime.ReadMemStats(&after)
	m.excl += time.Since(t)
	if err != nil {
		m.tr.end("exec.run", sp, 1)
		m.fail(http.StatusUnprocessableEntity, "execute: %v", err)
		return
	}
	m.tr.addExec(sp, d, int64(after.Mallocs-before.Mallocs), int64(after.TotalAlloc-before.TotalAlloc))

	sp = m.tr.begin()
	digest := res.Digest()
	m.tr.end("exec.digest", sp, 1)
	info := m.spaceInfo(p)
	sp = m.tr.begin()
	rankText := rank.String()
	m.tr.end("serve.render", sp, 1)
	m.write(serve.ExecuteResponse{
		SpaceInfo:    info,
		Rank:         rankText,
		ScaledCost:   sc,
		RowCount:     res.Stats.RowsProduced,
		RowsExamined: res.Stats.RowsExamined,
		Truncated:    res.Stats.Truncated,
		Reason:       res.Stats.Reason,
		Digest:       digest,
		ElapsedMs:    float64(res.Stats.Elapsed.Microseconds()) / 1000,
		Operators:    res.Stats.Operators,
	})
}

func (m *mirror) applyEndpoint() {
	sp := m.tr.begin()
	folded, epoch := m.e.ApplyFeedback()
	m.tr.end("feedback.apply", sp, 1)
	sp = m.tr.begin()
	corrections := m.e.Feedback().Corrections()
	invalidated := m.e.Overlays().Stats().Invalidations
	m.tr.end("feedback.stats", sp, 1)
	m.write(serve.FeedbackApplyResponse{Epoch: epoch, Folded: folded, Corrections: corrections, Invalidated: invalidated})
}
