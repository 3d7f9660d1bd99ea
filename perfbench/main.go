// Command perfbench is the planserved benchmark. One client goroutine
// drives the real serve handler in-process (no socket) in a closed loop
// over one of three seeded workloads and prints the end-to-end metrics;
// with -trace 1 it instead replays a fixed request sequence through the
// handler and, request by request beside it, through the public calls of
// each module with spans around them, and prints the per-layer split.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it through run.sh, which builds it from the surrounding checkout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/serve"
	"repro/internal/storage"
	"repro/internal/tpch"
)

// Fixed data: TPC-H at scale factor 0.001 generated from seed 42. The
// workload seed only shapes the request stream.
const (
	scaleFactor = 0.001
	dataSeed    = 42
	setupReps   = 9  // set-ups per run; setup_s is their median
	windows     = 20 // the timed loop's metrics are medians over this many windows
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: sample-warm, execute-governed or prepare-churn")
	seed := flag.Int64("seed", 1, "workload seed (request stream only; the data is fixed)")
	seconds := flag.Float64("seconds", 10, "length of the timed loop in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	spansDir := flag.String("spans-dir", ".", "directory the traced run writes its span file into")
	flag.Parse()

	build, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload <%s> --seed <n> --seconds <s> --trace <0|1>\n", workloadNames())
		return 2
	}

	procs := min(2, runtime.NumCPU())
	runtime.GOMAXPROCS(procs)
	fmt.Printf("env: GOMAXPROCS=%d nproc=%d go=%s cpu=%q\n", runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), cpuModel())
	fmt.Printf("workload: %s seed=%d seconds=%g trace=%d data=tpch sf=%g seed=%d\n", *name, *seed, *seconds, *trace, scaleFactor, dataSeed)

	before := calibrate()
	var (
		res result
		err error
	)
	if *trace == 1 {
		res, err = runTraced(*name, build, *seed, *spansDir)
	} else {
		res, err = runTimed(build, *seed, time.Duration(*seconds*float64(time.Second)))
	}
	after := calibrate()
	fmt.Printf("calibration: before=%.2fms after=%.2fms drift=%+.1f%%\n", ms(before), ms(after), 100*(ms(after)/ms(before)-1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// server is one set-up: the data, an engine with default caches, and
// the real HTTP handler over it.
type server struct {
	db     *storage.DB
	engine *engine.Engine
	client *client
}

// newServer builds a server over db, generating fresh data when db is
// nil.
func newServer(db *storage.DB) (*server, error) {
	if db == nil {
		var err error
		if db, err = tpch.NewDB(scaleFactor, dataSeed); err != nil {
			return nil, fmt.Errorf("generating data: %w", err)
		}
	}
	e := engine.New(db)
	srv := serve.New(e, serve.WithQueryResolver(tpch.Query))
	return &server{db: db, engine: e, client: newClient(srv.Handler())}, nil
}

// setUp builds a server (see newServer) and warms it up with the
// workload's warm-up sequence, every response checked.
func setUp(w *workload, db *storage.DB) (*server, error) {
	s, err := newServer(db)
	if err != nil {
		return nil, err
	}
	chk := w.newChecker()
	for i := range w.warm {
		if _, _, err := s.client.call(&w.warm[i], chk); err != nil {
			return nil, fmt.Errorf("warm-up request %d: %w", i, err)
		}
	}
	return s, nil
}

// runTimed is the end-to-end run: set up setupReps times (reporting the
// median), then one closed-loop client sends the pre-generated requests
// back to back for dur.
func runTimed(build func(int64) (*workload, error), seed int64, dur time.Duration) (result, error) {
	w, err := build(seed)
	if err != nil {
		return result{}, err
	}
	var (
		s      *server
		setups []float64
	)
	for i := 0; i < setupReps; i++ {
		s = nil
		runtime.GC()
		start := time.Now()
		if s, err = setUp(w, nil); err != nil {
			return result{}, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	runtime.GC()
	chk := w.newChecker()
	lat := make([]float64, 0, 1<<14)
	classes := make([]int, 0, 1<<14)
	failed := 0
	start := time.Now()
	deadline := start.Add(dur)
	for i := 0; time.Now().Before(deadline); i++ {
		r := &w.reqs[i%len(w.reqs)]
		d, class, err := s.client.call(r, chk)
		if err != nil {
			failed++
			logFailure(w, r, i, err, failed)
		}
		lat = append(lat, ms(d))
		classes = append(classes, class)
	}
	wall := time.Since(start).Seconds()
	n := len(lat)

	// The metrics run on the handler's clock: the loop's time with the
	// client's own work (building requests, checking responses) taken
	// out. It is cut into equal windows and each metric is the median
	// over them, so a host hiccup that slows one window does not move it.
	busy := 0.0
	for _, l := range lat {
		busy += l / 1e3
	}
	var p50s, p90s, rates []float64
	t, i := 0.0, 0
	for k := 1; k <= windows; k++ {
		hi := busy * float64(k) / windows
		var in []float64
		for ; i < n && (t+lat[i]/1e3 <= hi || k == windows); i++ {
			t += lat[i] / 1e3
			in = append(in, lat[i])
		}
		if len(in) == 0 {
			continue
		}
		p50s = append(p50s, percentile(in, 0.5))
		p90s = append(p90s, percentile(in, 0.9))
		rates = append(rates, float64(len(in))/(busy/windows))
	}
	p50, p90, rps := median(p50s), median(p90s), median(rates)
	fmt.Printf("timed: %d requests in %.3fs, %.3fs of it in the handler (%d windows), setups=%v\n", n, wall, busy, windows, roundAll(setups, 4))
	fmt.Printf("windows: p50=%v p90=%v rps=%v\n", roundAll(p50s, 3), roundAll(p90s, 3), roundAll(rates, 1))
	fmt.Printf("latency: median of windows p50=%.4fms p90=%.4fms rps=%.2f; whole loop p50=%.4fms p90=%.4fms rps=%.2f (wall clock, checks included: %.2f); %d and %d of %d samples above p50 and p90\n",
		p50, p90, rps, percentile(lat, 0.5), percentile(lat, 0.9), float64(n)/busy, float64(n)/wall, countAbove(lat, p50), countAbove(lat, p90), n)
	reportModes(w.classNames, lat, classes)

	// Release everything the benchmark holds (oracle, request stream,
	// samples, the client's buffers) so the live heap is the server's
	// own: engine, caches and data.
	lat, classes, w, chk = nil, nil, nil, nil
	s.client.release()
	runtime.GC()
	live := heapLiveBytes()
	runtime.KeepAlive(s)

	return result{
		Correct:   failed == 0,
		Attempted: n,
		Failed:    failed,
		Metrics: map[string]metric{
			"latency_p50_ms": {p50, "ms"},
			"latency_p90_ms": {p90, "ms"},
			"throughput_rps": {rps, "1/s"},
			"heap_live_mb":   {float64(live) / (1 << 20), "MB"},
			"setup_s":        {median(setups), "s"},
			"success_ratio":  {float64(n-failed) / float64(n), "ratio"},
		},
	}, nil
}

// calibrate times a fixed CPU-only loop: the same work on every run, so
// a shift in it is host drift, not the program.
func calibrate() time.Duration {
	start := time.Now()
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 50_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	d := time.Since(start)
	if x == 0 { // never true; keeps the loop from being optimized away
		fmt.Println()
	}
	return d
}

// cpuModel is the CPU's model name as the kernel reports it, or the
// architecture where /proc/cpuinfo has none.
func cpuModel() string {
	info, _ := os.ReadFile("/proc/cpuinfo")
	for _, line := range strings.Split(string(info), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func heapLiveBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile interpolates linearly between the closest ranks of a copy
// of vals sorted ascending.
func percentile(vals []float64, q float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(vals []float64) float64 { return percentile(vals, 0.5) }

func countAbove(vals []float64, v float64) int {
	n := 0
	for _, x := range vals {
		if x > v {
			n++
		}
	}
	return n
}

func roundAll(vals []float64, digits int) []float64 {
	p := math.Pow(10, float64(digits))
	out := make([]float64, len(vals))
	for i, v := range vals {
		out[i] = math.Round(v*p) / p
	}
	return out
}

// reportModes prints, per request class, its count and median latency,
// and for p50 and p90 which classes the samples around that percentile
// (±2% of ranks) belong to — the latency mode each percentile falls in.
func reportModes(classNames []string, lat []float64, classes []int) {
	idx := make([]int, len(lat))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return lat[idx[a]] < lat[idx[b]] })
	byClass := make([][]float64, len(classNames))
	for i, c := range classes {
		byClass[c] = append(byClass[c], lat[i])
	}
	for c, v := range byClass {
		if len(v) > 0 {
			fmt.Printf("class %-16s n=%-7d share=%5.1f%% p10=%.3f p25=%.3f p50=%.3f p75=%.3f p90=%.3f p99=%.3f\n", classNames[c], len(v),
				100*float64(len(v))/float64(len(lat)), percentile(v, 0.1), percentile(v, 0.25), percentile(v, 0.5), percentile(v, 0.75), percentile(v, 0.9), percentile(v, 0.99))
		}
	}
	for _, q := range []float64{0.5, 0.9} {
		lo := int((q - 0.02) * float64(len(idx)))
		hi := min(len(idx), int((q+0.02)*float64(len(idx)))+1)
		counts := make([]int, len(classNames))
		for _, i := range idx[lo:hi] {
			counts[classes[i]]++
		}
		var parts []string
		for c, k := range counts {
			if k > 0 {
				parts = append(parts, fmt.Sprintf("%s %.0f%%", classNames[c], 100*float64(k)/float64(hi-lo)))
			}
		}
		fmt.Printf("mode at p%.0f (ranks %.0f-%.0f%%): %s\n", 100*q, 100*(q-0.02), 100*(q+0.02), strings.Join(parts, ", "))
	}
}
