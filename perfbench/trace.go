package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/tpch"
)

// span is one timed call. Layer spans are children of their request's
// handler span; shadow spans are re-runs outside the handler (parent
// names what they decompose). Per-plan calls inside one loop are
// aggregated into one span whose calls field counts them.
type span struct {
	Req     int    `json:"req"`
	Warm    bool   `json:"warm,omitempty"`
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	Kind    string `json:"kind,omitempty"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
	Calls   int    `json:"calls"`
	Shadow  bool   `json:"shadow,omitempty"`
	Allocs  int64  `json:"allocs,omitempty"`
	Bytes   int64  `json:"bytes,omitempty"`
}

// tracer keeps spans in memory; they are written out when the run ends.
// A nil tracer records nothing.
type tracer struct {
	t0    time.Time
	req   int
	warm  bool
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

func (t *tracer) begin() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

func (t *tracer) add(name, parent, kind string, start time.Time, d time.Duration, calls int) {
	if t == nil {
		return
	}
	if parent == "" && name != "handler" {
		parent = "handler"
	}
	t.spans = append(t.spans, span{Req: t.req, Warm: t.warm, Name: name, Parent: parent, Kind: kind,
		StartNs: start.Sub(t.t0).Nanoseconds(), DurNs: d.Nanoseconds(), Calls: calls})
}

func (t *tracer) end(name string, start time.Time, calls int) {
	if t != nil {
		t.add(name, "", "", start, time.Since(start), calls)
	}
}

func (t *tracer) endKind(name, kind string, start time.Time, calls int) {
	if t != nil {
		t.add(name, "", kind, start, time.Since(start), calls)
	}
}

// endShadow records a call made outside the handler span.
func (t *tracer) endShadow(name, parent string, start time.Time, calls int) time.Duration {
	if t == nil {
		return 0
	}
	d := time.Since(start)
	t.add(name, parent, "", start, d, calls)
	t.spans[len(t.spans)-1].Shadow = true
	return d
}

func (t *tracer) addExec(start time.Time, d time.Duration, allocs, bytes int64) {
	t.add("exec.run", "", "", start, d, 1)
	t.spans[len(t.spans)-1].Allocs = allocs
	t.spans[len(t.spans)-1].Bytes = bytes
}

// next moves on to the following request.
func (t *tracer) next() { t.req++ }

// recording reports whether spans belong to the measured pass (not the
// warm-up).
func (t *tracer) recording() bool { return t != nil && !t.warm }

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// passStats is what one pass over the traced prefix observed, through
// the handler or through the mirror; the count fields must agree.
type passStats struct {
	tally          tally
	evictions      uint64
	structureBytes int64
	handler        time.Duration   // the real handler's time (handler passes only)
	lat            []time.Duration // per request, paired pass only
	classes        []int           // per request, paired pass only
	gcCycles       uint32
	gcPause        time.Duration
	failed         int
}

func (p passStats) counts() string {
	b, _ := json.Marshal(struct {
		T tally  `json:"tally"`
		E uint64 `json:"evictions"`
		S int64  `json:"structure_bytes"`
	}{p.tally, p.evictions, p.structureBytes})
	return string(b)
}

// mirrorTolerance is how far the mirror's handler time may stray from
// the real handler's on the same requests before the traced run fails:
// past it, the per-layer split no longer describes the program (or the
// tracing itself costs too much).
const mirrorTolerance = 0.25

// runTraced replays the first traceN requests, each pass on a freshly
// set-up server over the same data. They share the data because
// fingerprints include the catalog's process-unique identity, and with
// it the cache shard each structure lands in.
//
//  1. The real handler alone, no spans: the GC counters.
//  2. The real handler and the mirror (with spans) on two servers,
//     taking turns request by request so that both see the same host
//     conditions, in alternating order so that neither always inherits
//     the other's GC work or warm caches. The handler's time is what
//     serve.self_us, the layer shares and the tracing overhead are
//     measured against.
//
// The three servers must agree on every count.
func runTraced(name string, build func(int64) (*workload, error), seed int64, spansDir string) (result, error) {
	w, err := build(seed)
	if err != nil {
		return result{}, err
	}
	reqs := w.reqs[:min(w.traceN, len(w.reqs))]

	db, err := tpch.NewDB(scaleFactor, dataSeed)
	if err != nil {
		return result{}, err
	}

	// Pass 1.
	s, err := setUp(w, db)
	if err != nil {
		return result{}, err
	}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	ev0 := s.engine.Cache().Stats().Evictions
	chk := w.newChecker()
	var plain passStats
	for i := range reqs {
		d, _, err := s.client.call(&reqs[i], chk)
		plain.handler += d
		if err != nil {
			plain.failed++
			logFailure(w, &reqs[i], i, err, plain.failed)
		}
	}
	runtime.ReadMemStats(&ms1)
	plain.gcCycles = ms1.NumGC - ms0.NumGC
	plain.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	plain.tally = *chk.counts()
	plain.evictions, plain.structureBytes = cacheCounts(s, ev0)
	s = nil

	// Pass 2. The mirror's warm-up is traced too: its structure misses
	// feed the cold-build metrics.
	runtime.GC()
	if s, err = setUp(w, db); err != nil {
		return result{}, err
	}
	mirrorSrv, err := newServer(db)
	if err != nil {
		return result{}, err
	}
	tr := newTracer()
	m := newMirror(mirrorSrv, tr)
	tr.warm = true
	wchk := w.newChecker()
	for i := range w.warm {
		status, body := m.serve(&w.warm[i])
		if _, err := wchk.check(&w.warm[i], status, body); err != nil {
			return result{}, fmt.Errorf("traced warm-up request %d: %w", i, err)
		}
	}
	tr.warm = false
	tr.req = 0
	runtime.GC()
	ev0, mev0 := s.engine.Cache().Stats().Evictions, mirrorSrv.engine.Cache().Stats().Evictions
	chk, mchk := w.newChecker(), w.newChecker()
	if rc, ok := mchk.(*readChecker); ok {
		rc.trace = tr
	}
	var paired, traced passStats
	viaHandler := func(i int) {
		d, class, err := s.client.call(&reqs[i], chk)
		paired.handler += d
		paired.lat = append(paired.lat, d)
		paired.classes = append(paired.classes, class)
		if err != nil {
			paired.failed++
			logFailure(w, &reqs[i], i, err, paired.failed)
		}
	}
	viaMirror := func(i int) {
		status, body := m.serve(&reqs[i])
		if _, err := mchk.check(&reqs[i], status, body); err != nil {
			traced.failed++
			logFailure(w, &reqs[i], i, err, traced.failed)
		}
	}
	for i := range reqs {
		if i%2 == 0 {
			viaHandler(i)
			viaMirror(i)
		} else {
			viaMirror(i)
			viaHandler(i)
		}
	}
	paired.tally, traced.tally = *chk.counts(), *mchk.counts()
	paired.evictions, paired.structureBytes = cacheCounts(s, ev0)
	traced.evictions, traced.structureBytes = cacheCounts(mirrorSrv, mev0)

	correct := plain.failed == 0 && paired.failed == 0 && traced.failed == 0
	for _, p := range []passStats{paired, traced} {
		if a, b := plain.counts(), p.counts(); a != b {
			correct = false
			fmt.Fprintf(os.Stderr, "determinism check failed: handler pass %s, later pass %s\n", a, b)
		}
	}
	fmt.Printf("counts: %s\n", traced.counts())

	path := filepath.Join(spansDir, fmt.Sprintf("spans-%s-seed%d.jsonl", name, seed))
	if err := tr.write(path); err != nil {
		return result{}, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Printf("spans: %d written to %s\n", len(tr.spans), path)

	mets := layerMetrics(tr, m, plain, paired, traced, len(reqs))
	if o := mets["trace.overhead"].Value; math.Abs(o) > mirrorTolerance {
		correct = false
		fmt.Fprintf(os.Stderr, "mirror check failed: the mirror's handler time is %+.1f%% off the real handler's (tolerance %.0f%%)\n", 100*o, 100*mirrorTolerance)
	}
	failed := max(plain.failed, paired.failed, traced.failed)
	return result{Correct: correct, Attempted: len(reqs), Failed: failed, Metrics: mets}, nil
}

// cacheCounts reads the evictions since ev0 and the resident structure
// bytes of s's structure cache.
func cacheCounts(s *server, ev0 uint64) (uint64, int64) {
	cs := s.engine.Cache().Stats()
	return cs.Evictions - ev0, cs.BytesCached
}

// serveSelfUs is serve's own time per request: the real handler's time
// on a request minus the mirror's layer spans on the same request. A
// request's executor or GC time varies between the two runs by more
// than serve's whole share of it, so per request class the median
// difference is taken, and the classes are weighted by their shares.
// The pairing resolves serve's time to a few tens of microseconds per
// request: enough on sample-warm (~0.5 ms of ~3 ms), not on
// execute-governed, where serve's ~30 us sit beside 2-35 ms of
// execution and the figure is noise around that value (it can read
// below zero).
func serveSelfUs(paired passStats, reqLayers []time.Duration) float64 {
	byClass := map[int][]float64{}
	for i, d := range paired.lat {
		c := paired.classes[i]
		byClass[c] = append(byClass[c], (d-reqLayers[i]).Seconds()*1e6)
	}
	self := 0.0
	for _, diffs := range byClass {
		self += median(diffs) * float64(len(diffs)) / float64(len(paired.lat))
	}
	return self
}

func logFailure(w *workload, r *request, i int, err error, n int) {
	if n <= 5 {
		fmt.Fprintf(os.Stderr, "request %d (%s %s): %v\n", i, endpointPaths[r.ep], w.classNames[r.class], err)
	}
}

// agg sums the measured-pass spans of one name.
type agg struct {
	dur   time.Duration
	calls int
}

func (a agg) perCallUs(per float64) float64 {
	if a.calls == 0 {
		return 0
	}
	return a.dur.Seconds() * 1e6 / (float64(a.calls) / per)
}

// layerMetrics turns the spans of the measured pass into the per-layer
// metrics. Shares and serve.self_us are of the real handler's time in
// the paired pass; trace.coverage is of the mirror's own handler spans.
func layerMetrics(tr *tracer, m *mirror, plain, paired, traced passStats, n int) map[string]metric {
	byName := map[string]agg{}
	byKind := map[string]agg{}
	var mirrored, layers, covered, execRun, unrankCost time.Duration
	var allocs, bytes int64
	reqLayers := make([]time.Duration, n)
	for _, s := range tr.spans {
		if s.Warm {
			continue
		}
		d := time.Duration(s.DurNs)
		a := byName[s.Name]
		a.dur += d
		a.calls += s.Calls
		byName[s.Name] = a
		if s.Name == "engine.prepare" {
			k := byKind[s.Kind]
			k.dur += d
			k.calls += s.Calls
			byKind[s.Kind] = k
		}
		switch {
		case s.Name == "handler":
			mirrored += d
		case s.Shadow:
		default:
			covered += d
			if !strings.HasPrefix(s.Name, "serve.") {
				layers += d
				reqLayers[s.Req] += d
			}
		}
		switch s.Name {
		case "exec.run":
			execRun += d
			allocs += s.Allocs
			bytes += s.Bytes
		case "core.unrank", "plan.cost":
			unrankCost += d
		}
	}
	actual := paired.handler
	share := func(d time.Duration) float64 { return d.Seconds() / actual.Seconds() }
	perReq := func(v float64) float64 { return v / float64(n) }
	perExec := func(v float64) float64 {
		if traced.tally.Executions == 0 {
			return 0
		}
		return v / float64(traced.tally.Executions)
	}
	ratio := func(a, b int) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	perBuild := func(v float64) float64 {
		if m.cold.builds == 0 {
			return 0
		}
		return v / float64(m.cold.builds)
	}
	cold := byKind["cold"]
	coldShare := 0.0
	if cold.dur > 0 {
		coldShare = m.cold.inPass.Seconds() / cold.dur.Seconds()
	}
	us := func(d time.Duration) float64 { return d.Seconds() * 1e6 }
	overhead := mirrored.Seconds()/actual.Seconds() - 1

	fmt.Printf("trace: handler=%.1fms mirror=%.1fms (overhead %+.1f%%) covered=%.1f%% of the mirror; of the handler: layers(non-serve)=%.1f%% exec=%.1f%% unrank+cost=%.1f%%; cold-build/cold-prepare=%.1f%%\n",
		actual.Seconds()*1e3, mirrored.Seconds()*1e3, 100*overhead, 100*covered.Seconds()/mirrored.Seconds(), 100*share(layers), 100*share(execRun), 100*share(unrankCost), 100*coldShare)
	fmt.Printf("trace: handler alone %.1fms, gc cycles %d, pause %.2fms\n", plain.handler.Seconds()*1e3, plain.gcCycles, plain.gcPause.Seconds()*1e3)

	return map[string]metric{
		"serve.self_us":              {serveSelfUs(paired, reqLayers), "us"},
		"serve.response_bytes":       {float64(traced.tally.ResponseBytes) / float64(max(1, traced.tally.Responses)), "bytes"},
		"core.unrank_us":             {byName["core.unrank"].perCallUs(1), "us"},
		"core.sample_ranks_us":       {byName["core.sample_ranks"].perCallUs(1000), "us"},
		"core.rank_us":               {byName["core.rank"].perCallUs(1), "us"},
		"plan.cost_us":               {byName["plan.cost"].perCallUs(1), "us"},
		"exec.run_us":                {byName["exec.run"].perCallUs(1), "us"},
		"exec.rows_examined":         {perExec(float64(traced.tally.RowsExamined)), "count"},
		"exec.truncated_frac":        {ratio(traced.tally.Truncated, traced.tally.Executions), "ratio"},
		"exec.allocs_per_run":        {perExec(float64(allocs)), "count"},
		"exec.bytes_per_run":         {perExec(float64(bytes)), "bytes"},
		"gc.cycles_per_req":          {perReq(float64(plain.gcCycles)), "count"},
		"gc.pause_us_per_req":        {perReq(us(plain.gcPause)), "us"},
		"sql.parse_us":               {byName["sql.parse"].perCallUs(1), "us"},
		"engine.prepare_us":          {byName["engine.prepare"].perCallUs(1), "us"},
		"engine.prepare_hit_us":      {byKind["hit"].perCallUs(1), "us"},
		"engine.prepare_recost_us":   {byKind["recost"].perCallUs(1), "us"},
		"engine.prepare_cold_us":     {cold.perCallUs(1), "us"},
		"engine.structure_hit_ratio": {ratio(traced.tally.StructureHits, traced.tally.Prepares), "ratio"},
		"engine.overlay_hit_ratio":   {ratio(traced.tally.OverlayHits, traced.tally.Prepares), "ratio"},
		"engine.evictions":           {float64(traced.evictions), "count"},
		"engine.structure_bytes":     {float64(traced.structureBytes), "bytes"},
		"engine.cold_build_share":    {coldShare, "ratio"},
		"algebra.bind_us":            {perBuild(us(m.cold.bind)), "us"},
		"opt.structure_us":           {perBuild(us(m.cold.structure)), "us"},
		"core.count_us":              {perBuild(us(m.cold.count)), "us"},
		"memo.groups":                {perBuild(float64(m.cold.groups)), "count"},
		"memo.exprs":                 {perBuild(float64(m.cold.exprs)), "count"},
		"feedback.apply_us":          {byName["feedback.apply"].perCallUs(1), "us"},
		"feedback.folded":            {float64(traced.tally.Folded), "count"},
		"exec.handler_share":         {share(execRun), "ratio"},
		"core.unrank_cost_share":     {share(unrankCost), "ratio"},
		"trace.coverage":             {covered.Seconds() / mirrored.Seconds(), "ratio"},
		"trace.overhead":             {overhead, "ratio"},
	}
}
