package engine

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/tpch"
)

// Sampled-sweep parameters: 40 seeded uniform ranks of each
// execute-governed query, run under that workload's work budget.
const (
	sweepPlans  = 40
	sweepSeed   = 23
	sweepBudget = 16_000
)

// TestSampledSweepGolden pins what the executor counts on uniformly
// sampled plans, most of which the budget cuts: per plan the rank, the
// truncation reason, RowsExamined, every operator's rows and opens, and
// the digest of a completed plan. A change in which rows an operator
// emits, in what order, or how much work it charges before the budget
// trips shows up here.
func TestSampledSweepGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("executes 160 sampled plans")
	}
	db, err := tpch.NewDB(0.001, 42)
	if err != nil {
		t.Fatal(err)
	}
	e := New(db)
	var sb strings.Builder
	for _, name := range []string{"Q3", "Q5", "Q9", "Q10"} {
		sqlText, _ := tpch.Query(name)
		p, err := e.Prepare(sqlText)
		if err != nil {
			t.Fatal(err)
		}
		smp, err := p.Sampler(sweepSeed)
		if err != nil {
			t.Fatal(err)
		}
		sb.WriteString("== " + name + "\n")
		for i := 0; i < sweepPlans; i++ {
			rank, pl, err := smp.Next()
			if err != nil {
				t.Fatal(err)
			}
			res, err := p.ExecuteWith(context.Background(), pl, exec.Options{MaxIntermediateRows: sweepBudget})
			if err != nil {
				t.Fatalf("%s rank %s: %v", name, rank, err)
			}
			st := res.Stats
			fmt.Fprintf(&sb, "%s examined=%d", rank, st.RowsExamined)
			if st.Truncated {
				sb.WriteString(" truncated=" + st.Reason)
			} else {
				sb.WriteString(" digest=" + res.Digest())
			}
			sb.WriteString("\n ")
			for _, op := range st.Operators {
				fmt.Fprintf(&sb, " %s:%d/%d", op.Name, op.Rows, op.Opens)
			}
			sb.WriteString("\n")
		}
	}
	checkGolden(t, "sampled_sweep.golden", sb.String())
}
