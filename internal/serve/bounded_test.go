package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/feedback"
)

// TestDistinctLiteralsKeepStateBounded sends 10k /execute requests, each
// with its own string literal in WHERE, in a CASE arm and in the select
// list; half the literals are texts the data holds, half are absent. No
// request may grow the DB's string table (absent literals are coded per
// query), every response must carry the literal's text, and the feedback
// store's pending and active maps stay at or under their cap although
// every literal makes new feedback keys.
func TestDistinctLiteralsKeepStateBounded(t *testing.T) {
	srv, e := newTestServer(t)
	h := srv.Handler()
	db := e.DB()

	// Texts the data holds, without quotes so they embed in SQL.
	var present []string
	seen := map[string]bool{}
	for _, name := range db.Catalog().Names() {
		tbl, err := db.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range tbl.Rows {
			for _, v := range row {
				if v.K != data.KindString {
					continue
				}
				if s := db.Strings().Text(v); !seen[s] && !strings.Contains(s, "'") {
					seen[s] = true
					present = append(present, s)
				}
			}
		}
	}
	size := db.Strings().Len()

	const n = 10_000
	for i := 0; i < n; i++ {
		lit := fmt.Sprintf("absent-%05d", i)
		if i%2 == 0 {
			lit = present[(i/2)%len(present)]
		}
		sqlText := fmt.Sprintf("SELECT n_name, '%[1]s' AS tag, "+
			"CASE WHEN n_name = '%[1]s' THEN 'hit' WHEN n_regionkey = 1 THEN '%[1]s' ELSE 'other' END AS arm "+
			"FROM nation WHERE n_name <> '%[1]s'", lit)
		var er ExecuteResponse
		post(t, h, "/execute", ExecuteRequest{QueryRequest: QueryRequest{SQL: sqlText}, IncludeRows: true}, http.StatusOK, &er)
		if er.Truncated || len(er.Rows) < 24 {
			t.Fatalf("%q: %d rows, truncated %v", lit, len(er.Rows), er.Truncated)
		}
		arms := 0
		for _, row := range er.Rows {
			if row[1] != lit {
				t.Fatalf("%q: tag column holds %q", lit, row[1])
			}
			if row[2] == lit {
				arms++
			}
		}
		if arms == 0 {
			t.Fatalf("%q: no CASE arm carried the literal: %v", lit, er.Rows)
		}
		if got := db.Strings().Len(); got != size {
			t.Fatalf("request %d grew the DB's string table from %d to %d", i, size, got)
		}
		if i%1000 == 999 {
			post(t, h, "/feedback/apply", struct{}{}, http.StatusOK, nil)
		}
		if i%500 == 499 {
			var st StatsResponse
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/stats", nil))
			if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
				t.Fatal(err)
			}
			if st.Feedback.Pending > feedback.MaxKeys || st.Feedback.Active > feedback.MaxKeys {
				t.Fatalf("feedback store past its cap: %+v", st.Feedback)
			}
		}
	}
	st := e.Feedback().Snapshot()
	if st.Evicted == 0 || st.Active != feedback.MaxKeys {
		t.Errorf("10k distinct literals should fill the active map and evict: %+v", st)
	}
}
