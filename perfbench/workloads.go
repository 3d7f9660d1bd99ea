package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/serve"
	"repro/internal/tpch"
)

// workloads maps each workload to its generator, which makes the oracle
// and every request from the seed before any timing starts.
var workloads = map[string]func(seed int64) (*workload, error){
	"sample-warm":      buildSampleWarm,
	"execute-governed": buildExecuteGoverned,
	"prepare-churn":    buildPrepareChurn,
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, "|")
}

// workload is one generated request stream with its oracle.
type workload struct {
	warm       []request // warm-up, run during every set-up
	reqs       []request // timed stream; the timed loop cycles it
	traceN     int       // requests the traced run replays (a fixed prefix of reqs)
	classNames []string  // request classes for the latency-mode report
	queries    []*oracleQuery
	newChecker func() checker
}

// oracleQuery is what the checker knows about one query, computed on a
// private engine over its own copy of the data — never the server's.
type oracleQuery struct {
	label     string // "Q5", "Q8+cross"
	name      string // TPC-H query name
	cross     bool
	p         *engine.Prepared
	count     string
	optRank   string
	optDigest string
}

func newOracle(specs []oracleQuery, execute bool) ([]*oracleQuery, error) {
	db, err := tpch.NewDB(scaleFactor, dataSeed)
	if err != nil {
		return nil, fmt.Errorf("oracle data: %w", err)
	}
	e := engine.New(db)
	out := make([]*oracleQuery, len(specs))
	for i := range specs {
		q := specs[i]
		sqlText, ok := tpch.Query(q.name)
		if !ok {
			return nil, fmt.Errorf("unknown query %s", q.name)
		}
		if q.p, err = e.Session(engine.WithCartesian(q.cross)).Prepare(sqlText); err != nil {
			return nil, fmt.Errorf("oracle prepare %s: %w", q.label, err)
		}
		q.count = q.p.Count().String()
		rank, err := q.p.OptimalRank()
		if err != nil {
			return nil, err
		}
		q.optRank = rank.String()
		if execute {
			res, err := q.p.ExecuteWith(context.Background(), q.p.OptimalPlan(), exec.Options{})
			if err != nil {
				return nil, fmt.Errorf("oracle execute %s: %w", q.label, err)
			}
			q.optDigest = res.Digest()
		}
		out[i] = &q
	}
	return out, nil
}

// slot is one entry of a request mix: a class and its share of every
// block of requests.
type slot struct {
	class  int
	weight int
}

// schedule deals n request classes in blocks whose composition is the
// mix exactly, each block shuffled by rng — so every prefix of whole
// blocks holds the intended shares and only the order depends on the
// seed.
func schedule(rng *rand.Rand, mix []slot, n int) []int {
	var block []int
	for _, s := range mix {
		for i := 0; i < s.weight; i++ {
			block = append(block, s.class)
		}
	}
	out := make([]int, 0, n+len(block))
	for len(out) < n {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		out = append(out, block...)
	}
	return out[:n]
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // request structs always marshal
	}
	return b
}

func randomRank(rng *rand.Rand, count string) string {
	n, _ := new(big.Int).SetString(count, 10)
	return new(big.Int).Rand(rng, n).String()
}

// decimalBelow reports whether a is a canonical non-negative decimal
// strictly below the canonical decimal n.
func decimalBelow(a, n string) bool {
	if len(a) == 0 || (len(a) > 1 && a[0] == '0') {
		return false
	}
	for i := 0; i < len(a); i++ {
		if a[i] < '0' || a[i] > '9' {
			return false
		}
	}
	return len(a) < len(n) || (len(a) == len(n) && a < n)
}

// tally accumulates the count metrics of one pass; two passes over the
// same requests from the same state must produce equal tallies.
type tally struct {
	Responses     int   `json:"responses"`
	ResponseBytes int64 `json:"response_bytes"` // excluding wall-clock fields
	Prepares      int   `json:"prepares"`       // space-bearing responses
	StructureHits int   `json:"structure_hits"`
	OverlayHits   int   `json:"overlay_hits"`
	Executions    int   `json:"executions"`
	RowsExamined  int64 `json:"rows_examined"`
	Truncated     int   `json:"truncated"`
	Folded        int   `json:"folded"`
}

// timingFields are the response fields holding wall-clock readings.
var timingFields = [][]byte{[]byte(`"sample_ms":`), []byte(`"prepare_ms":`), []byte(`"elapsed_ms":`)}

// stableLen is len(body) without the digits of its wall-clock fields,
// the part of a response that repeats exactly across runs.
func stableLen(body []byte) int64 {
	n := int64(len(body))
	for _, key := range timingFields {
		i := bytes.Index(body, key)
		if i < 0 {
			continue
		}
		j := i + len(key)
		for j < len(body) && bytes.IndexByte([]byte("0123456789.-+eE"), body[j]) >= 0 {
			j++
		}
		n -= int64(j - i - len(key))
	}
	return n
}

// spaceFields are the SpaceInfo fields every space-bearing response
// embeds.
type spaceFields struct {
	Count         string `json:"count"`
	Cached        bool   `json:"cached"`
	OverlayCached bool   `json:"overlay_cached"`
}

func (t *tally) space(s spaceFields) {
	t.Prepares++
	if s.Cached {
		t.StructureHits++
	}
	if s.OverlayCached {
		t.OverlayHits++
	}
}

// ---- sample-warm -------------------------------------------------------

const (
	sampleK        = 1000
	unrankBatch    = 256
	roundTripsEach = 4 // seeded Rank(Unrank(r)) == r checks per response
)

func buildSampleWarm(seed int64) (*workload, error) {
	qs, err := newOracle([]oracleQuery{
		{label: "Q5", name: "Q5"}, {label: "Q7", name: "Q7"}, {label: "Q8", name: "Q8"},
		{label: "Q9", name: "Q9"}, {label: "Q8+cross", name: "Q8", cross: true},
	}, false)
	if err != nil {
		return nil, err
	}
	w := &workload{queries: qs, traceN: 1250}
	// Classes 0..4 sample query i; classes 5..9 unrank a batch of query i-5.
	for _, q := range qs {
		w.classNames = append(w.classNames, "sample/"+q.label)
	}
	for _, q := range qs {
		w.classNames = append(w.classNames, "unrank/"+q.label)
	}
	// Out of every 250 requests: 185 sample the ~3 ms spaces (Q5, Q7,
	// Q9), 25 sample Q8, 35 sample the wide-tier Q8+cross and 5 unrank a
	// batch (one per query). p50 falls inside the Q5/Q7/Q9 mode and p90
	// near the middle of the Q8+cross mode.
	mix := []slot{{0, 62}, {1, 62}, {2, 25}, {3, 61}, {4, 35}, {5, 1}, {6, 1}, {7, 1}, {8, 1}, {9, 1}}
	rng := rand.New(rand.NewSource(seed))
	gen := func(class int) request {
		if class < len(qs) {
			q := qs[class]
			r := request{ep: epSample, query: class, class: class, seed: rng.Int63()}
			r.body = mustJSON(serve.SampleRequest{QueryRequest: serve.QueryRequest{Query: q.name, Cross: q.cross}, K: sampleK, Seed: r.seed})
			return r
		}
		qi := class - len(qs)
		q := qs[qi]
		r := request{ep: epUnrank, query: qi, class: class, ranks: make([]string, unrankBatch)}
		for i := range r.ranks {
			r.ranks[i] = randomRank(rng, q.count)
		}
		r.body = mustJSON(serve.UnrankRequest{QueryRequest: serve.QueryRequest{Query: q.name, Cross: q.cross}, Ranks: r.ranks})
		return r
	}
	// Warm-up: every class a few times, so every structure is built and
	// every code path has run before timing.
	for round := 0; round < 3; round++ {
		for class := range w.classNames {
			w.warm = append(w.warm, gen(class))
		}
	}
	for _, class := range schedule(rng, mix, 8000) {
		w.reqs = append(w.reqs, gen(class))
	}
	w.newChecker = func() checker { return &readChecker{w: w} }
	return w, nil
}

// readChecker verifies /sample and /unrank responses: every rank below
// the plan count, and Rank(Unrank(r)) == r with a matching scaled cost on
// a seeded subset, computed on the oracle's own space.
type readChecker struct {
	w     *workload
	t     tally
	trace *tracer // times the oracle's Rank calls in the traced run
}

type sampleResp struct {
	spaceFields
	Ranks       []string  `json:"ranks"`
	ScaledCosts []float64 `json:"scaled_costs"`
}

type unrankResp struct {
	spaceFields
	Plans []struct {
		Rank       string  `json:"rank"`
		ScaledCost float64 `json:"scaled_cost"`
	} `json:"plans"`
}

func (c *readChecker) counts() *tally { return &c.t }

func (c *readChecker) check(r *request, status int, body []byte) (int, error) {
	c.t.Responses++
	c.t.ResponseBytes += stableLen(body)
	if status != 200 {
		return r.class, statusErr(status, body)
	}
	q := c.w.queries[r.query]
	var (
		space spaceFields
		ranks []string
		costs []float64
	)
	switch r.ep {
	case epSample:
		var resp sampleResp
		if err := json.Unmarshal(body, &resp); err != nil {
			return r.class, err
		}
		if len(resp.Ranks) != sampleK || len(resp.ScaledCosts) != sampleK {
			return r.class, fmt.Errorf("%d ranks and %d costs for k=%d", len(resp.Ranks), len(resp.ScaledCosts), sampleK)
		}
		space, ranks, costs = resp.spaceFields, resp.Ranks, resp.ScaledCosts
	case epUnrank:
		var resp unrankResp
		if err := json.Unmarshal(body, &resp); err != nil {
			return r.class, err
		}
		if len(resp.Plans) != len(r.ranks) {
			return r.class, fmt.Errorf("%d plans for %d ranks", len(resp.Plans), len(r.ranks))
		}
		for i, pl := range resp.Plans {
			if pl.Rank != r.ranks[i] {
				return r.class, fmt.Errorf("plan %d has rank %s, sent %s", i, pl.Rank, r.ranks[i])
			}
			ranks = append(ranks, pl.Rank)
			costs = append(costs, pl.ScaledCost)
		}
		space = resp.spaceFields
	default:
		return r.class, fmt.Errorf("unexpected endpoint %s", endpointPaths[r.ep])
	}
	c.t.space(space)
	if space.Count != q.count {
		return r.class, fmt.Errorf("count %s, want %s", space.Count, q.count)
	}
	for i, rk := range ranks {
		if !decimalBelow(rk, q.count) {
			return r.class, fmt.Errorf("rank %d = %q not below count %s", i, rk, q.count)
		}
	}
	pick := rand.New(rand.NewSource(r.seed + int64(len(ranks))))
	for t := 0; t < roundTripsEach; t++ {
		i := pick.Intn(len(ranks))
		if err := c.roundTrip(q, ranks[i], costs[i]); err != nil {
			return r.class, err
		}
	}
	return r.class, nil
}

func (c *readChecker) roundTrip(q *oracleQuery, rank string, cost float64) error {
	n, _ := new(big.Int).SetString(rank, 10)
	pl, err := q.p.Unrank(n)
	if err != nil {
		return fmt.Errorf("oracle unrank %s: %w", rank, err)
	}
	sp := c.trace.begin()
	back, err := q.p.Space.Rank(pl)
	c.trace.endShadow("core.rank", "check", sp, 1)
	if err != nil {
		return fmt.Errorf("oracle rank: %w", err)
	}
	if back.Cmp(n) != 0 {
		return fmt.Errorf("Rank(Unrank(%s)) = %s", rank, back)
	}
	want, err := q.p.ScaledCost(pl)
	if err != nil {
		return err
	}
	if math.Abs(want-cost) > 1e-9*math.Max(1, math.Abs(want)) {
		return fmt.Errorf("plan %s: scaled cost %g, oracle %g", rank, cost, want)
	}
	return nil
}

// ---- execute-governed --------------------------------------------------

const (
	// execBudget is every /execute request's intermediate-row budget:
	// twice the optimal plans' work (at most ~8.1k rows at sf=0.001), so
	// they complete, and low enough that pathological sampled plans stop
	// at a row count rather than a deadline.
	execBudget   = 16_000
	randomStrata = 16 // slices of [0, count) a round of random draws covers
)

// stratified draws ranks uniformly from [0, count): the i-th draw of
// each round of n comes from a uniformly chosen point of one of n equal
// slices of the range, the slices visited in a fresh random order every
// round. Every draw is uniform over the whole range, but any n
// consecutive draws cover it evenly, which keeps the mix of cheap and
// pathological plans in a run from depending on the seed.
type stratified struct {
	rng   *rand.Rand
	count *big.Int
	order []int
	pos   int
}

func newStratified(rng *rand.Rand, count string, n int) *stratified {
	c, _ := new(big.Int).SetString(count, 10)
	return &stratified{rng: rng, count: c, order: rng.Perm(n)}
}

func (s *stratified) next() string {
	n := int64(len(s.order))
	if s.pos == len(s.order) {
		s.order = s.rng.Perm(len(s.order))
		s.pos = 0
	}
	slice := int64(s.order[s.pos])
	s.pos++
	lo := new(big.Int).Div(new(big.Int).Mul(s.count, big.NewInt(slice)), big.NewInt(n))
	hi := new(big.Int).Div(new(big.Int).Mul(s.count, big.NewInt(slice+1)), big.NewInt(n))
	width := new(big.Int).Sub(hi, lo)
	return new(big.Int).Add(lo, new(big.Int).Rand(s.rng, width)).String()
}

func buildExecuteGoverned(seed int64) (*workload, error) {
	qs, err := newOracle([]oracleQuery{
		{label: "Q3", name: "Q3"}, {label: "Q5", name: "Q5"}, {label: "Q9", name: "Q9"}, {label: "Q10", name: "Q10"},
	}, true)
	if err != nil {
		return nil, err
	}
	w := &workload{queries: qs, traceN: 800}
	for _, q := range qs {
		w.classNames = append(w.classNames, "optimal/"+q.label)
	}
	for _, q := range qs {
		w.classNames = append(w.classNames, "random/"+q.label)
	}
	// Out of every 16 requests: 12 run the optimal plan (three per
	// query) and 4 a uniformly drawn rank (one per query). p50 falls
	// inside the optimal-plan mode, p90 inside the sampled-plan mode.
	mix := []slot{{0, 3}, {1, 3}, {2, 3}, {3, 3}, {4, 1}, {5, 1}, {6, 1}, {7, 1}}
	timeoutMs := serve.DefaultExecLimits().MaxTimeout.Milliseconds()
	rng := rand.New(rand.NewSource(seed))
	optimal := make([][]byte, len(qs))
	for i, q := range qs {
		optimal[i] = mustJSON(serve.ExecuteRequest{QueryRequest: serve.QueryRequest{Query: q.name}, TimeoutMs: timeoutMs, MaxIntermediateRows: execBudget})
	}
	strata := make([]*stratified, len(qs))
	for i, q := range qs {
		strata[i] = newStratified(rng, q.count, randomStrata)
	}
	gen := func(class int) request {
		qi := class % len(qs)
		if class < len(qs) {
			return request{ep: epExecute, query: qi, class: class, body: optimal[qi]}
		}
		q := qs[qi]
		rank := strata[qi].next()
		return request{ep: epExecute, query: qi, class: class, ranks: []string{rank},
			body: mustJSON(serve.ExecuteRequest{QueryRequest: serve.QueryRequest{Query: q.name}, Rank: rank, TimeoutMs: timeoutMs, MaxIntermediateRows: execBudget})}
	}
	for round := 0; round < 3; round++ {
		for class := range qs {
			w.warm = append(w.warm, gen(class))
		}
	}
	for _, class := range schedule(rng, mix, 6000) {
		w.reqs = append(w.reqs, gen(class))
	}
	w.newChecker = func() checker { return &execChecker{w: w} }
	return w, nil
}

// execChecker verifies /execute responses by the paper's method: every
// plan that completes returns the optimal plan's rows (same digest), and
// truncation only ever comes from a row budget, never a deadline.
type execChecker struct {
	w *workload
	t tally
}

type executeResp struct {
	spaceFields
	Rank         string `json:"rank"`
	RowsExamined int64  `json:"rows_examined"`
	Truncated    bool   `json:"truncated"`
	Reason       string `json:"truncated_reason"`
	Digest       string `json:"digest"`
}

func (c *execChecker) counts() *tally { return &c.t }

func (c *execChecker) check(r *request, status int, body []byte) (int, error) {
	c.t.Responses++
	c.t.ResponseBytes += stableLen(body)
	if status != 200 {
		return r.class, statusErr(status, body)
	}
	var resp executeResp
	if err := json.Unmarshal(body, &resp); err != nil {
		return r.class, err
	}
	c.t.space(resp.spaceFields)
	c.t.Executions++
	c.t.RowsExamined += resp.RowsExamined
	q := c.w.queries[r.query]
	want := q.optRank
	if r.ranks != nil {
		want = r.ranks[0]
	}
	switch {
	case resp.Count != q.count || resp.Rank != want:
		return r.class, fmt.Errorf("ran plan %s of %s, want %s of %s", resp.Rank, resp.Count, want, q.count)
	case resp.Truncated && r.ranks == nil:
		return r.class, fmt.Errorf("optimal plan of %s truncated (%s)", q.label, resp.Reason)
	case resp.Truncated && resp.Reason != "work_budget_exceeded" && resp.Reason != "row_limit":
		return r.class, fmt.Errorf("plan %s truncated by %s, not by a row budget", resp.Rank, resp.Reason)
	case resp.Truncated:
		c.t.Truncated++
	case resp.Digest != q.optDigest:
		return r.class, fmt.Errorf("plan %s of %s: digest %s, optimal plan's %s", resp.Rank, q.label, resp.Digest, q.optDigest)
	}
	return r.class, nil
}

// ---- prepare-churn -----------------------------------------------------

// churnTemplate is a query whose literals vary: variant(i) renders the
// i-th literal combination. All variants share the template's structure
// and plan count, but each has its own fingerprint.
type churnTemplate struct {
	name     string
	share    int // requests per block of 10
	hot      int // > 0: pick uniformly among the first hot variants; 0: Zipf over all
	variants int
	variant  func(i int) string
}

var segments = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"}
var regions = []string{"ASIA", "AMERICA", "EUROPE", "AFRICA", "MIDDLE EAST"}
var returnFlags = []string{"R", "A", "N"}

func date(year, month, day int) string { return fmt.Sprintf("DATE '%04d-%02d-%02d'", year, month, day) }

func churnTemplates() []churnTemplate {
	q3, _ := tpch.Query("Q3")
	q5, _ := tpch.Query("Q5")
	q10, _ := tpch.Query("Q10")
	return []churnTemplate{
		{"Q3", 4, 0, len(segments) * 60, func(i int) string {
			// segment × cut-off day (60 days from 1995-03-01)
			seg, day := segments[i%len(segments)], i/len(segments)
			month, d := 3+day/30, 1+day%30
			s := strings.Replace(q3, "'BUILDING'", "'"+seg+"'", 1)
			return strings.ReplaceAll(s, "DATE '1995-03-15'", date(1995, month, d))
		}},
		{"Q5", 3, 16, len(regions) * 48, func(i int) string {
			// region × one-year window starting any month of 1993-1996
			reg, m := regions[i%len(regions)], i/len(regions)
			y, mo := 1993+m/12, 1+m%12
			s := strings.Replace(q5, "'ASIA'", "'"+reg+"'", 1)
			s = strings.Replace(s, "DATE '1994-01-01'", date(y, mo, 1), 1)
			return strings.Replace(s, "DATE '1995-01-01'", date(y+1, mo, 1), 1)
		}},
		{"Q10", 3, 16, len(returnFlags) * 36, func(i int) string {
			// return flag × three-month window starting any month of 1993-1995
			flag, m := returnFlags[i%len(returnFlags)], i/len(returnFlags)
			y, mo := 1993+m/12, 1+m%12
			y2, mo2 := y, mo+3
			if mo2 > 12 {
				y2, mo2 = y+1, mo2-12
			}
			s := strings.Replace(q10, "'R'", "'"+flag+"'", 1)
			s = strings.Replace(s, "DATE '1993-10-01'", date(y, mo, 1), 1)
			return strings.Replace(s, "DATE '1994-01-01'", date(y2, mo2, 1), 1)
		}},
	}
}

const (
	churnApplyEvery = 500 // one /feedback/apply per this many requests
	churnZipfS      = 1.2 // popularity skew over a Zipf template's variants
)

// churn request kinds, by which cache tiers a /prepare hit.
var churnKinds = []string{"hit", "recost", "cold"}

func buildPrepareChurn(seed int64) (*workload, error) {
	tmpls := churnTemplates()
	specs := make([]oracleQuery, len(tmpls))
	for i, t := range tmpls {
		specs[i] = oracleQuery{label: t.name, name: t.name}
	}
	qs, err := newOracle(specs, false)
	if err != nil {
		return nil, err
	}
	w := &workload{queries: qs, traceN: 10000}
	for _, kind := range churnKinds {
		for _, t := range tmpls {
			w.classNames = append(w.classNames, kind+"/"+t.name)
		}
	}
	applyClass := len(w.classNames)
	w.classNames = append(w.classNames, "apply", "execute")
	bodies := make([][][]byte, len(tmpls))
	for i, t := range tmpls {
		bodies[i] = make([][]byte, t.variants)
		for v := range bodies[i] {
			bodies[i][v] = mustJSON(serve.QueryRequest{SQL: t.variant(v)})
		}
	}
	rng := rand.New(rand.NewSource(seed))
	zipf := make([]*rand.Zipf, len(tmpls))
	var mix []slot
	for i, t := range tmpls {
		if t.hot == 0 {
			zipf[i] = rand.NewZipf(rng, churnZipfS, 1, uint64(t.variants-1))
		}
		mix = append(mix, slot{i, t.share})
	}
	applyBody := []byte(`{}`)
	stream := func(n int, applies bool) []request {
		out := make([]request, 0, n)
		for i, ti := range schedule(rng, mix, n) {
			if applies && i%churnApplyEvery == churnApplyEvery-1 {
				out = append(out, request{ep: epFeedbackApply, body: applyBody, class: applyClass})
				continue
			}
			var v int
			if zipf[ti] != nil {
				v = int(zipf[ti].Uint64())
			} else {
				v = rng.Intn(tmpls[ti].hot)
			}
			out = append(out, request{ep: epPrepare, query: ti, body: bodies[ti][v]})
		}
		return out
	}
	// Warm-up: run each template's optimal plan once, so the first timed
	// /feedback/apply folds real observations, then fill the caches.
	for i, t := range tmpls {
		w.warm = append(w.warm, request{ep: epExecute, query: i, class: applyClass + 1,
			body: mustJSON(serve.ExecuteRequest{QueryRequest: serve.QueryRequest{Query: t.name}})})
	}
	w.warm = append(w.warm, stream(2000, false)...)
	w.reqs = stream(60_000, true) // the timed loop cycles it on fast hosts
	w.newChecker = func() checker { return &churnChecker{w: w} }
	return w, nil
}

// churnChecker verifies /prepare responses (every literal variant has
// its template's plan count) and /feedback/apply responses (the epoch
// advances by exactly one per apply), and classes each prepare by which
// cache tiers it hit.
type churnChecker struct {
	w     *workload
	t     tally
	epoch uint64
}

type prepareResp struct {
	spaceFields
	OptimalRank string `json:"optimal_rank"`
}

type applyResp struct {
	Epoch  uint64 `json:"epoch"`
	Folded int    `json:"folded"`
}

func (c *churnChecker) counts() *tally { return &c.t }

func (c *churnChecker) check(r *request, status int, body []byte) (int, error) {
	c.t.Responses++
	c.t.ResponseBytes += stableLen(body)
	if status != 200 {
		return r.class, statusErr(status, body)
	}
	q := c.w.queries[r.query]
	switch r.ep {
	case epFeedbackApply:
		var resp applyResp
		if err := json.Unmarshal(body, &resp); err != nil {
			return r.class, err
		}
		if c.epoch != 0 && resp.Epoch != c.epoch+1 {
			return r.class, fmt.Errorf("feedback epoch %d after %d", resp.Epoch, c.epoch)
		}
		c.epoch = resp.Epoch
		c.t.Folded += resp.Folded
		return r.class, nil
	case epExecute:
		var resp executeResp
		if err := json.Unmarshal(body, &resp); err != nil {
			return r.class, err
		}
		if resp.Truncated || resp.Count != q.count {
			return r.class, fmt.Errorf("warm-up execute of %s: truncated=%v count=%s", q.label, resp.Truncated, resp.Count)
		}
		return r.class, nil
	}
	var resp prepareResp
	if err := json.Unmarshal(body, &resp); err != nil {
		return 0, err
	}
	c.t.space(resp.spaceFields)
	kind := 0 // hit
	switch {
	case !resp.Cached:
		kind = 2 // cold
	case !resp.OverlayCached:
		kind = 1 // recost
	}
	class := kind*len(c.w.queries) + r.query
	if resp.Count != q.count {
		return class, fmt.Errorf("variant of %s reports %s plans, template %s", q.label, resp.Count, q.count)
	}
	if !decimalBelow(resp.OptimalRank, q.count) {
		return class, fmt.Errorf("optimal rank %s not below count %s", resp.OptimalRank, q.count)
	}
	return class, nil
}
