// Command planserved is the plan-space service: a long-running HTTP
// server over a generated TPC-H database that counts, unranks, samples,
// explains — and executes — execution plans for concurrent clients (see
// internal/serve for the endpoint contract). Counted spaces are cached
// by query fingerprint with byte-budget eviction, so the first request
// for a query pays for optimization and counting and every later one is
// served from the cache; execution runs under server-enforced Governor
// limits (wall clock, output rows, intermediate rows), so even a
// pathological sampled plan cannot hang the server.
//
// Examples:
//
//	planserved -addr :8080 -sf 0.001
//	curl -s localhost:8080/count         -d '{"query":"Q5"}'
//	curl -s localhost:8080/sample        -d '{"query":"Q9","k":4,"seed":1}'
//	curl -s localhost:8080/unrank        -d '{"query":"Q5","ranks":["0","123456"]}'
//	curl -s localhost:8080/execute       -d '{"query":"Q3","rank":"12345","include_rows":true}'
//	curl -s localhost:8080/execute_batch -d '{"query":"Q3","k":4,"seed":7,"timeout_ms":500}'
//	curl -s localhost:8080/explain       -d '{"sql":"SELECT r_name FROM region ORDER BY r_name"}'
//	curl -s localhost:8080/stats
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/engine"
	"repro/internal/serve"
	"repro/internal/tpch"
)

func main() {
	lim := serve.DefaultExecLimits()
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		sf         = flag.Float64("sf", 0.001, "TPC-H scale factor")
		seed       = flag.Int64("seed", 42, "data generator seed")
		cacheCap   = flag.Int("cache", engine.DefaultCacheCapacity, "max counted structures kept in the fingerprint cache")
		cacheBytes = flag.Int64("cache-bytes", engine.DefaultCacheBytes, "byte budget for cached structures (0 = unlimited)")
		execTO     = flag.Duration("exec-timeout", lim.DefaultTimeout, "default per-plan execution timeout")
		execRows   = flag.Int64("exec-maxrows", lim.DefaultMaxRows, "default output row cap per execution")
		execWork   = flag.Int64("exec-maxwork", lim.DefaultMaxWork, "default intermediate-row budget per execution")
	)
	flag.Parse()
	lim.DefaultTimeout = *execTO
	lim.DefaultMaxRows = *execRows
	lim.DefaultMaxWork = *execWork
	if err := run(*addr, *sf, *seed, *cacheCap, *cacheBytes, lim); err != nil {
		fmt.Fprintln(os.Stderr, "planserved:", err)
		os.Exit(1)
	}
}

func run(addr string, sf float64, seed int64, cacheCap int, cacheBytes int64, lim serve.ExecLimits) error {
	log.Printf("generating TPC-H sf=%g seed=%d ...", sf, seed)
	start := time.Now()
	db, err := tpch.NewDB(sf, seed)
	if err != nil {
		return err
	}
	log.Printf("database ready in %v", time.Since(start).Round(time.Millisecond))
	cache := engine.NewSpaceCache(cacheCap)
	cache.SetByteBudget(cacheBytes)
	e := engine.New(db, engine.WithCache(cache))
	srv := serve.New(e, serve.WithQueryResolver(tpch.Query), serve.WithExecLimits(lim))
	log.Printf("serving plan spaces on %s (cache: %d structures / %d MB, exec: %v timeout, %d rows, %d work)",
		addr, cacheCap, cacheBytes>>20, lim.DefaultTimeout, lim.DefaultMaxRows, lim.DefaultMaxWork)
	return srv.ListenAndServe(addr)
}
