package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/big"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/tpch"
)

// crossSQL has no join predicates: with cross=true every plan is a
// chain of cross products — the adversarial workload the Governor
// exists for.
const crossSQL = "SELECT COUNT(l_orderkey) AS n FROM lineitem, orders, customer"

// TestExecuteEndpointMatchesEngine: /execute runs a sampled rank end to
// end over HTTP against the cached space and reproduces the engine's
// own governed execution, digest for digest.
func TestExecuteEndpointMatchesEngine(t *testing.T) {
	srv, e := newTestServer(t)
	h := srv.Handler()

	// Draw a rank over the wire, then execute it over the wire.
	var sr SampleResponse
	post(t, h, "/sample", SampleRequest{QueryRequest: QueryRequest{Query: "Q3"}, K: 1, Seed: 11}, http.StatusOK, &sr)
	rank := sr.Ranks[0]

	var er ExecuteResponse
	post(t, h, "/execute", ExecuteRequest{QueryRequest: QueryRequest{Query: "Q3"}, Rank: rank, IncludeRows: true},
		http.StatusOK, &er)
	if er.Truncated {
		t.Fatalf("sampled Q3 plan truncated under default limits: %+v", er)
	}
	if er.Rank != rank {
		t.Errorf("executed rank %s, want %s", er.Rank, rank)
	}
	if !er.Cached {
		t.Error("/execute after /sample should ride the shared space cache")
	}
	if len(er.Operators) == 0 || er.RowsExamined <= 0 {
		t.Errorf("missing execution counters: %+v", er)
	}
	if len(er.Columns) == 0 || int64(len(er.Rows)) != er.RowCount {
		t.Errorf("include_rows: %d columns, %d rows rendered for row_count %d",
			len(er.Columns), len(er.Rows), er.RowCount)
	}

	// Reference: the same rank through Session.Execute directly.
	sqlQ3, _ := tpch.Query("Q3")
	r, _ := new(big.Int).SetString(rank, 10)
	ref, err := e.Session().Execute(context.Background(), sqlQ3, r, exec.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := er.Digest, ref.Result.Digest(); got != want {
		t.Errorf("served digest %s, engine digest %s", got, want)
	}
	if diff := er.ScaledCost - ref.ScaledCost; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("served scaled cost %g, engine %g", er.ScaledCost, ref.ScaledCost)
	}
}

// TestExecuteUseplanInSQL: OPTION (USEPLAN n) inside the statement
// selects the plan; the optimal plan runs when nothing selects one.
func TestExecuteUseplanInSQL(t *testing.T) {
	srv, _ := newTestServer(t)
	h := srv.Handler()
	var withPlan ExecuteResponse
	post(t, h, "/execute", ExecuteRequest{QueryRequest: QueryRequest{SQL: q6 + " OPTION (USEPLAN 0)"}},
		http.StatusOK, &withPlan)
	if withPlan.Rank != "0" {
		t.Errorf("USEPLAN 0 executed rank %s", withPlan.Rank)
	}
	var opt ExecuteResponse
	post(t, h, "/execute", ExecuteRequest{QueryRequest: QueryRequest{SQL: q6}}, http.StatusOK, &opt)
	if opt.ScaledCost < 0.999 || opt.ScaledCost > 1.001 {
		t.Errorf("default execution should run the optimal plan, scaled cost %g", opt.ScaledCost)
	}
	if opt.Digest != withPlan.Digest {
		t.Error("plan choice changed the answer on a single-table aggregate")
	}
}

// TestExecutePathologicalPlanTruncated: a cross-product plan must come
// back 200 with a structured truncation instead of hanging the server —
// by work budget and by deadline.
func TestExecutePathologicalPlanTruncated(t *testing.T) {
	srv, _ := newTestServer(t)
	h := srv.Handler()

	var byWork ExecuteResponse
	post(t, h, "/execute",
		ExecuteRequest{QueryRequest: QueryRequest{SQL: crossSQL, Cross: true}, MaxIntermediateRows: 50_000},
		http.StatusOK, &byWork)
	if !byWork.Truncated || byWork.Reason != exec.ReasonWorkBudget {
		t.Fatalf("work-budget kill: %+v", byWork)
	}
	if byWork.RowsExamined > 50_000+int64(exec.DefaultCheckEvery) {
		t.Errorf("examined %d rows against a 50k budget", byWork.RowsExamined)
	}

	// The work budget is raised to the server's ceiling so that the
	// deadline, not the default budget, is what stops the run: the
	// executor gets through the default 5e6 rows in under 100 ms.
	start := time.Now()
	var byTime ExecuteResponse
	post(t, h, "/execute",
		ExecuteRequest{QueryRequest: QueryRequest{SQL: crossSQL, Cross: true}, TimeoutMs: 100,
			MaxIntermediateRows: DefaultExecLimits().MaxWork},
		http.StatusOK, &byTime)
	if !byTime.Truncated || byTime.Reason != exec.ReasonDeadline {
		t.Fatalf("deadline kill: %+v", byTime)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("100ms deadline enforced after %v", elapsed)
	}
}

// TestExecuteBatch: sample k ranks, execute each under a per-plan
// budget, and verify every completed plan agrees with the optimizer's
// plan.
func TestExecuteBatch(t *testing.T) {
	srv, _ := newTestServer(t)
	h := srv.Handler()
	var resp ExecuteBatchResponse
	post(t, h, "/execute_batch",
		ExecuteBatchRequest{QueryRequest: QueryRequest{Query: "Q3"}, K: 4, Seed: 9, TimeoutMs: 10_000},
		http.StatusOK, &resp)
	if resp.Optimal.Truncated || resp.Optimal.Error != "" {
		t.Fatalf("optimal reference did not complete: %+v", resp.Optimal)
	}
	if len(resp.Plans) != 4 {
		t.Fatalf("%d plans for k=4", len(resp.Plans))
	}
	for i, pl := range resp.Plans {
		if pl.Error != "" {
			t.Errorf("plan %d (%s) failed: %s", i, pl.Rank, pl.Error)
			continue
		}
		if pl.Truncated {
			t.Errorf("plan %d (%s) truncated under a 10s budget: %+v", i, pl.Rank, pl)
			continue
		}
		if !pl.MatchesOptimal {
			t.Errorf("plan %d (%s) produced different rows than the optimal plan", i, pl.Rank)
		}
		if pl.Digest != resp.Optimal.Digest {
			t.Errorf("plan %d (%s) digest differs from optimal", i, pl.Rank)
		}
		if pl.LatencyMs < 0 || pl.RowsExamined <= 0 {
			t.Errorf("plan %d implausible counters: %+v", i, pl)
		}
		if pl.ScaledCost < 0.999 {
			t.Errorf("plan %d scaled cost %g below optimum", i, pl.ScaledCost)
		}
	}

	// Deterministic: the same seed draws and executes the same ranks.
	var again ExecuteBatchResponse
	post(t, h, "/execute_batch",
		ExecuteBatchRequest{QueryRequest: QueryRequest{Query: "Q3"}, K: 4, Seed: 9, TimeoutMs: 10_000},
		http.StatusOK, &again)
	for i := range again.Plans {
		if again.Plans[i].Rank != resp.Plans[i].Rank || again.Plans[i].Digest != resp.Plans[i].Digest {
			t.Errorf("draw %d not deterministic across equal seeds", i)
		}
	}
}

// TestExecuteBatchPathological: even a whole batch of cross-product
// plans terminates within its per-plan budgets, each with a structured
// reason.
func TestExecuteBatchPathological(t *testing.T) {
	srv, _ := newTestServer(t)
	var resp ExecuteBatchResponse
	post(t, srv.Handler(), "/execute_batch",
		ExecuteBatchRequest{QueryRequest: QueryRequest{SQL: crossSQL, Cross: true}, K: 3, Seed: 2, MaxIntermediateRows: 20_000},
		http.StatusOK, &resp)
	for i, pl := range resp.Plans {
		if pl.Error != "" {
			continue
		}
		if !pl.Truncated || pl.Reason == "" {
			t.Errorf("cross plan %d survived its budget without a reason: %+v", i, pl)
		}
		if pl.MatchesOptimal {
			t.Errorf("truncated plan %d claims to match the optimal result", i)
		}
	}
}

// TestClampTimeoutOverflow: an absurd timeout_ms must clamp to the
// server ceiling, not overflow time.Duration into "no deadline".
func TestClampTimeoutOverflow(t *testing.T) {
	l := DefaultExecLimits()
	opts := l.clamp(10_000_000_000_000, 0, 0)
	if opts.Timeout <= 0 || opts.Timeout > l.MaxTimeout {
		t.Errorf("clamped timeout = %v, want (0, %v]", opts.Timeout, l.MaxTimeout)
	}
	if got := l.clamp(500, 0, 0).Timeout; got != 500*time.Millisecond {
		t.Errorf("ordinary timeout clamped to %v", got)
	}
	if got := l.clamp(0, 0, 0).Timeout; got != l.DefaultTimeout {
		t.Errorf("omitted timeout = %v, want default %v", got, l.DefaultTimeout)
	}
}

// TestExecuteValidation: malformed execution requests are client
// errors.
func TestExecuteValidation(t *testing.T) {
	srv, _ := newTestServer(t)
	h := srv.Handler()
	post(t, h, "/execute", ExecuteRequest{QueryRequest: QueryRequest{Query: "Q3"}, Rank: "not-a-number"},
		http.StatusBadRequest, nil)
	post(t, h, "/execute", ExecuteRequest{QueryRequest: QueryRequest{Query: "Q3"}, Rank: "-4"},
		http.StatusBadRequest, nil)
	post(t, h, "/execute", ExecuteRequest{QueryRequest: QueryRequest{Query: "Q3"}, Rank: "99999999999999999999999999"},
		http.StatusUnprocessableEntity, nil)
	post(t, h, "/execute_batch", ExecuteBatchRequest{QueryRequest: QueryRequest{Query: "Q3"}, K: 0},
		http.StatusBadRequest, nil)
	post(t, h, "/execute_batch", ExecuteBatchRequest{QueryRequest: QueryRequest{Query: "Q3"}, K: 10_000},
		http.StatusBadRequest, nil)
}

// TestStatsReportsBytesCached: the size-aware cache surfaces its byte
// accounting through /stats.
func TestStatsReportsBytesCached(t *testing.T) {
	srv, _ := newTestServer(t)
	h := srv.Handler()
	post(t, h, "/prepare", QueryRequest{Query: "Q5"}, http.StatusOK, nil)
	req := httptest.NewRequest(http.MethodGet, "/stats", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	var st StatsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Cache.BytesCached <= 0 {
		t.Errorf("bytes_cached = %d after a prepare, want > 0", st.Cache.BytesCached)
	}
	if st.Cache.ByteBudget <= 0 {
		t.Errorf("byte_budget = %d, want the default budget", st.Cache.ByteBudget)
	}
}

// TestExecuteConcurrentClientsAndCancellation is the race soak for the
// execution path: concurrent clients execute governed pathological and
// healthy plans while other clients cancel mid-flight; the server must
// answer every surviving request correctly and stay healthy afterwards.
func TestExecuteConcurrentClientsAndCancellation(t *testing.T) {
	srv, _ := newTestServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const clients = 12
	var wg sync.WaitGroup
	errs := make(chan error, clients*2)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			switch c % 3 {
			case 0:
				// Healthy governed execution.
				body, _ := json.Marshal(ExecuteRequest{QueryRequest: QueryRequest{Query: "Q3"}, TimeoutMs: 10_000})
				resp, err := http.Post(ts.URL+"/execute", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				defer resp.Body.Close()
				var er ExecuteResponse
				if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK || er.Truncated {
					errs <- fmt.Errorf("client %d: status %d truncated=%v", c, resp.StatusCode, er.Truncated)
				}
			case 1:
				// Pathological plan, cut off by its budget.
				body, _ := json.Marshal(ExecuteRequest{QueryRequest: QueryRequest{SQL: crossSQL, Cross: true}, MaxIntermediateRows: 30_000})
				resp, err := http.Post(ts.URL+"/execute", "application/json", bytes.NewReader(body))
				if err != nil {
					errs <- err
					return
				}
				defer resp.Body.Close()
				var er ExecuteResponse
				if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK || !er.Truncated {
					errs <- fmt.Errorf("client %d: pathological plan not truncated (status %d)", c, resp.StatusCode)
				}
			case 2:
				// Mid-flight cancellation: the client walks away while the
				// Governor is still grinding; the server must notice and
				// reclaim the worker.
				ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
				defer cancel()
				body, _ := json.Marshal(ExecuteRequest{QueryRequest: QueryRequest{SQL: crossSQL, Cross: true}, TimeoutMs: 20_000})
				req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/execute", bytes.NewReader(body))
				req.Header.Set("Content-Type", "application/json")
				resp, err := http.DefaultClient.Do(req)
				if err == nil {
					resp.Body.Close() // raced to completion before the cancel — fine
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// The server is still healthy: canceled executions released their
	// resources and a fresh governed request completes.
	var er ExecuteResponse
	post(t, srv.Handler(), "/execute", ExecuteRequest{QueryRequest: QueryRequest{Query: "Q3"}}, http.StatusOK, &er)
	if er.Truncated {
		t.Errorf("post-soak execution truncated: %+v", er)
	}
}
