// Costdist: a Section 5 experiment in miniature. Sample plans uniformly
// from TPC-H Q5's search space, scale their modeled costs to the
// optimizer's optimum, and plot the lower half of the distribution — the
// exponential-looking concentration near the optimum the paper reports.
package main

import (
	"fmt"
	"log"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/histogram"
	"repro/internal/tpch"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	db, err := tpch.NewDB(0.001, 42)
	if err != nil {
		return err
	}
	e := engine.New(db)
	cfg := experiments.Config{SampleSize: 3000, Seed: 1}

	sqlText, _ := tpch.Query("Q5")
	costs, p, err := experiments.ScaledCosts(e, sqlText, false, &cfg)
	if err != nil {
		return err
	}

	fmt.Printf("TPC-H Q5: %s plans in the space\n", p.Count())
	sum := histogram.Summarize(costs)
	fmt.Printf("sampled %d plans: min=%.2f mean=%.4g max=%.4g of optimum\n",
		sum.N, sum.Min, sum.Mean, sum.Max)
	fmt.Printf("within 2x of optimum: %.2f%%   within 10x: %.2f%%\n\n",
		100*sum.WithinTwo, 100*sum.WithinTen)

	plot, err := experiments.Figure4(e, "Q5", false, 30, &cfg)
	if err != nil {
		return err
	}
	fmt.Print(plot.Render())

	// The same query with Cartesian products admitted: the space grows by
	// orders of magnitude and the tail stretches much further.
	crossCfg := experiments.Config{SampleSize: 1000, Seed: 1}
	crossRow, err := experiments.Table1(e, "Q5", true, &crossCfg)
	if err != nil {
		return err
	}
	fmt.Printf("\nwith Cartesian products: %s plans, sampled mean %.4g, max %.4g\n",
		crossRow.Plans, crossRow.Mean, crossRow.Max)
	return nil
}
