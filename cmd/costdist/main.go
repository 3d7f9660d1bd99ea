// Command costdist regenerates the paper's evaluation artifacts:
//
//	costdist -table1            Table 1 (search space parameters, both
//	                            without and with Cartesian products)
//	costdist -figure4           Figure 4 (cost distribution histograms of
//	                            the lower 50% of sampled scaled costs)
//	costdist -prune             the E9 pruning ablation
//
// The sample size defaults to the paper's 10,000; lower it for quick
// runs. Each query's sample is the one seeded stream /sample returns
// for -sample-seed, so apart from the timing lines all output is
// deterministic for a given (sf, seed, samples, sample-seed), whatever
// the host's core count.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/rules"
	"repro/internal/tpch"
)

func main() {
	var (
		sf       = flag.Float64("sf", 0.001, "TPC-H scale factor")
		seed     = flag.Int64("seed", 42, "data generator seed")
		samples  = flag.Int("samples", 10000, "plans sampled per query (paper: 10000)")
		sseed    = flag.Int64("sample-seed", 1, "sampling seed")
		table1   = flag.Bool("table1", false, "regenerate Table 1")
		figure4  = flag.Bool("figure4", false, "regenerate Figure 4")
		prune    = flag.Bool("prune", false, "run the pruning ablation (E9)")
		buckets  = flag.Int("buckets", 40, "histogram buckets for Figure 4")
		queries  = flag.String("queries", strings.Join(tpch.PaperQueries(), ","), "comma-separated query names")
		cross    = flag.Bool("cross", false, "Figure 4/prune: allow Cartesian products")
		noLookup = flag.Bool("no-lookup", false, "disable index nested-loop joins (paper-like space without correlated lookups)")
	)
	flag.Parse()
	if !*table1 && !*figure4 && !*prune {
		*table1, *figure4 = true, true
	}
	if err := run(*sf, *seed, *samples, *sseed, *table1, *figure4, *prune, *buckets, *queries, *cross, *noLookup); err != nil {
		fmt.Fprintln(os.Stderr, "costdist:", err)
		os.Exit(1)
	}
}

func run(sf float64, seed int64, samples int, sseed int64, table1, figure4, prune bool, buckets int, queries string, cross, noLookup bool) error {
	fmt.Printf("generating TPC-H sf=%g seed=%d ...\n", sf, seed)
	db, err := tpch.NewDB(sf, seed)
	if err != nil {
		return err
	}
	e := engine.New(db)
	cfg := experiments.Config{SampleSize: samples, Seed: sseed}
	if noLookup {
		rc := rules.Default()
		rc.EnableIndexNLJoin = false
		cfg.Rules = &rc
	}
	names := strings.Split(strings.ReplaceAll(queries, " ", ""), ",")

	if table1 {
		fmt.Println("\n=== Table 1: parameters of search spaces of TPC-H join queries ===")
		rows, err := experiments.Table1All(e, names, &cfg)
		if err != nil {
			return err
		}
		for _, row := range rows {
			from := "cold"
			if row.Cached {
				from = "cache hit"
			}
			fmt.Printf("  %s cross=%v: count in %v (%s), %d samples in %v (%s arithmetic)\n",
				row.Query, row.Cross, row.CountTime, from, row.Sample, row.SampleTime, row.Arith)
		}
		fmt.Println()
		fmt.Print(experiments.FormatTable1(rows))
	}

	if figure4 {
		fmt.Println("\n=== Figure 4: cost distributions (lower 50% of sampled costs) ===")
		for _, q := range names {
			plot, err := experiments.Figure4(e, q, cross, buckets, &cfg)
			if err != nil {
				return err
			}
			fmt.Println()
			fmt.Print(plot.Render())
		}
	}

	if prune {
		fmt.Println("\n=== E9: retained plans under cost-bound pruning ===")
		for _, q := range names {
			sqlText, ok := tpch.Query(q)
			if !ok {
				return fmt.Errorf("unknown query %q", q)
			}
			ab, err := experiments.Prune(e, sqlText, cross)
			if err != nil {
				return err
			}
			fmt.Printf("  %s: full space %s plans; pruning optimizer retains %s\n",
				q, ab.Full, ab.Retained)
		}
	}
	return nil
}
