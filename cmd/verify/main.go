// Command verify is the Section 4 stochastic testing harness: it executes
// many plans of the same query — the whole space when small enough,
// otherwise a uniform sample — and checks that every plan produces the
// same result as the optimizer's plan. A mismatch means either the
// optimizer admitted an invalid plan or an execution operator is buggy.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/tpch"
)

func main() {
	var (
		sf         = flag.Float64("sf", 0.0005, "TPC-H scale factor (verification executes plans; keep small)")
		seed       = flag.Int64("seed", 42, "data generator seed")
		queries    = flag.String("queries", "Q3,Q6,Q10", "comma-separated query names (or 'all')")
		exhaustive = flag.Int("max-exhaustive", 2000, "execute the whole space when it has at most this many plans")
		samples    = flag.Int("samples", 50, "plans to execute when sampling")
		sseed      = flag.Int64("sample-seed", 7, "sampling seed")
	)
	flag.Parse()
	if err := run(*sf, *seed, *queries, *exhaustive, *samples, *sseed); err != nil {
		fmt.Fprintln(os.Stderr, "verify:", err)
		os.Exit(1)
	}
}

func run(sf float64, seed int64, queries string, exhaustive, samples int, sseed int64) error {
	fmt.Printf("generating TPC-H sf=%g seed=%d ...\n", sf, seed)
	db, err := tpch.NewDB(sf, seed)
	if err != nil {
		return err
	}
	e := engine.New(db)
	names := strings.Split(queries, ",")
	if queries == "all" {
		names = tpch.QueryNames()
	}
	failed := false
	for _, name := range names {
		name = strings.TrimSpace(name)
		sqlText, ok := tpch.Query(name)
		if !ok {
			return fmt.Errorf("unknown query %q; available: %s", name, strings.Join(tpch.QueryNames(), ", "))
		}
		report, err := experiments.Verify(e, sqlText, exhaustive, samples, sseed)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		mode := "sampled"
		if report.Exhaustive {
			mode = "exhaustive"
		}
		fmt.Printf("%s: space=%s plans, executed=%d (%s), mismatches=%d\n",
			name, report.Plans, report.Executed, mode, len(report.Mismatches))
		for _, m := range report.Mismatches {
			failed = true
			fmt.Printf("  MISMATCH: %s\n", m)
		}
	}
	if failed {
		return fmt.Errorf("verification found mismatches")
	}
	fmt.Println("all executed plans produced identical results")
	return nil
}
