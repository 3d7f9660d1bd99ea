// Verification: the paper's Section 4 methodology end to end. For a
// small join query the whole space is executed exhaustively — every one
// of its plans must produce identical rows. For a larger query a uniform
// sample is executed instead ("when the space of alternatives becomes too
// large for exhaustive testing, uniform random sampling provides a
// mechanism for unbiased testing").
package main

import (
	"fmt"
	"log"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/tpch"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	db, err := tpch.NewDB(0.0004, 42)
	if err != nil {
		return err
	}
	e := engine.New(db)

	// Exhaustive: a 2-way join with a small space.
	small := `
		SELECT n_name, r_name
		FROM nation, region
		WHERE n_regionkey = r_regionkey AND r_name <> 'EUROPE'
		ORDER BY n_name`
	report, err := experiments.Verify(e, small, 100000, 0, 7)
	if err != nil {
		return err
	}
	fmt.Printf("small query: %s plans, executed %d exhaustively, mismatches: %d\n",
		report.Plans, report.Executed, len(report.Mismatches))

	// Sampled: TPC-H Q10's space is ~10^8 plans; execute a uniform sample.
	q10, _ := tpch.Query("Q10")
	report, err = experiments.Verify(e, q10, 2000, 25, 7)
	if err != nil {
		return err
	}
	fmt.Printf("TPC-H Q10:   %s plans, executed %d sampled plans, mismatches: %d\n",
		report.Plans, report.Executed, len(report.Mismatches))

	for _, m := range report.Mismatches {
		fmt.Println("  MISMATCH:", m)
	}
	if len(report.Mismatches) == 0 {
		fmt.Println("\nevery executed plan produced the same result — optimizer and executor agree")
	}
	return nil
}
