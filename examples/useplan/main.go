// USEPLAN: the paper's Section 4 SQL extension. The statement's
// OPTION (USEPLAN n) clause makes the engine build the MEMO, count the
// plans, and execute plan number n instead of the optimizer's choice —
// the loop below is exactly the scripting pattern the paper describes
// for generating regression tests.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/engine"
	"repro/internal/exec"
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
	// The query from the paper's Section 4, transposed onto TPC-H: which
	// nations did customer 13's purchases ship from?
	base := `
		SELECT n_name, COUNT(l_orderkey) AS items
		FROM customer, orders, lineitem, supplier, nation
		WHERE c_custkey = o_custkey
		  AND o_orderkey = l_orderkey
		  AND l_suppkey = s_suppkey
		  AND s_nationkey = n_nationkey
		  AND c_custkey = 13
		GROUP BY n_name
		ORDER BY n_name`

	ctx := context.Background()
	sess := engine.New(db).Session()
	reference, err := sess.Execute(ctx, base, nil, exec.Options{})
	if err != nil {
		return err
	}
	fmt.Printf("query has %s plans\n\n", reference.Prepared.Count())
	fmt.Printf("optimizer's plan (number %s):\n%s\n", reference.Rank, reference.Result)

	// Iterate a deterministic selection of plan numbers through the SQL
	// interface itself, checking every result against the optimizer's:
	// the same rows, in the ORDER BY order.
	for _, n := range []int64{0, 7, 8, 1000, 999999} {
		stmt := fmt.Sprintf("%s OPTION (USEPLAN %d)", base, n)
		exe, err := sess.Execute(ctx, stmt, nil, exec.Options{})
		if err != nil {
			return fmt.Errorf("USEPLAN %d: %w", n, err)
		}
		status := "OK (same result)"
		if err := exe.Prepared.Check(exe.Result, reference.Result); err != nil {
			status = fmt.Sprintf("MISMATCH (%v) — optimizer or executor bug!", err)
		}
		fmt.Printf("OPTION (USEPLAN %7d): %d rows, %s\n", n, len(exe.Result.Rows), status)
	}

	// Out-of-range plan numbers are rejected with the space size.
	_, err = sess.Execute(ctx, base+" OPTION (USEPLAN 99999999999999999999999999)", nil, exec.Options{})
	fmt.Printf("\nout-of-range USEPLAN is rejected: %v\n", err)
	return nil
}
