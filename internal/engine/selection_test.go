package engine_test

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/tpch"
)

// TestConcurrentFirstExecutionsShareSelections runs the optimal and ten
// sampled plans of Q3, Q5, Q9 and Q10 from four goroutines at once on a
// fresh engine, so that their scans record, publish and walk the
// structures' selection bitmaps concurrently (run it under -race).
// Every execution must report what the same plan reports run alone
// with nothing cached.
func TestConcurrentFirstExecutionsShareSelections(t *testing.T) {
	db := benchTPCH(t)
	e := engine.New(db)
	type job struct {
		p    *engine.Prepared
		pl   *plan.Node
		want string
	}
	opts := exec.Options{MaxIntermediateRows: countersBudget}
	outcome := func(res *exec.Result, err error) string {
		if err != nil {
			return "error: " + err.Error()
		}
		var sb strings.Builder
		fmt.Fprintf(&sb, "examined=%d truncated=%q", res.Stats.RowsExamined, res.Stats.Reason)
		if !res.Stats.Truncated {
			sb.WriteString(" digest=" + res.Digest())
		}
		for _, op := range res.Stats.Operators {
			fmt.Fprintf(&sb, " %s:%d/%d", op.Name, op.Rows, op.Opens)
		}
		return sb.String()
	}
	var jobs []job
	for _, name := range []string{"Q3", "Q5", "Q9", "Q10"} {
		sqlText, _ := tpch.Query(name)
		p, err := e.Prepare(sqlText)
		if err != nil {
			t.Fatal(err)
		}
		plans := []*plan.Node{p.OptimalPlan()}
		smp, err := p.Sampler(5)
		if err != nil {
			t.Fatal(err)
		}
		for range 10 {
			_, pl, err := smp.Next()
			if err != nil {
				t.Fatal(err)
			}
			plans = append(plans, pl)
		}
		for _, pl := range plans {
			want := outcome(exec.RunWithOptions(context.Background(), pl, db, p.Shared.Query, nil, opts))
			jobs = append(jobs, job{p, pl, want})
		}
	}
	var wg sync.WaitGroup
	errs := make(chan string, 4*len(jobs))
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, j := range jobs {
				if got := outcome(j.p.ExecuteWith(context.Background(), j.pl, opts)); got != j.want {
					errs <- fmt.Sprintf("goroutine %d:\n got %s\nwant %s", w, got, j.want)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
}
