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

// TestDistinctTextsKeepAliasesBounded sends 10k /prepare requests, each
// a distinct text of one structure (a comment and trailing blanks
// differ). Every request parses and hits the one cached structure; the
// cache keeps at most four statement-text aliases of it, and the bytes
// charged for them stay bounded. The last texts sent are then answered
// through their aliases, and the first is not.
func TestDistinctTextsKeepAliasesBounded(t *testing.T) {
	srv, _ := newTestServer(t)
	h := srv.Handler()
	stats := func() StatsResponse {
		t.Helper()
		var st StatsResponse
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/stats", nil))
		if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	const body = "SELECT n_name, r_name FROM nation, region WHERE n_regionkey = r_regionkey ORDER BY n_name"
	text := func(i int) string { return fmt.Sprintf("-- client %d\n%s%s", i, body, strings.Repeat(" ", i%5)) }
	prepare := func(i int) PrepareResponse {
		t.Helper()
		var pr PrepareResponse
		post(t, h, "/prepare", QueryRequest{SQL: text(i)}, http.StatusOK, &pr)
		return pr
	}

	first := prepare(0)
	bound := stats().Cache.BytesCached + 3*int64(len(text(0))+1024) // the structure and four aliases
	const n = 10_000
	for i := 1; i < n; i++ {
		if pr := prepare(i); !pr.Cached || pr.Fingerprint != first.Fingerprint {
			t.Fatalf("text %d: cached %v, fingerprint %s; want the first text's structure %s", i, pr.Cached, pr.Fingerprint, first.Fingerprint)
		}
		if i%500 == 499 {
			st := stats()
			if st.Cache.Aliases > 4 || st.Cache.Entries != 1 || st.Cache.BytesCached > bound || st.Cache.TextHits != 0 {
				t.Fatalf("after %d texts: %+v (byte bound %d)", i+1, st.Cache, bound)
			}
		}
	}
	for i := n - 4; i < n; i++ {
		prepare(i)
	}
	if st := stats(); st.Cache.TextHits != 4 {
		t.Errorf("the last 4 texts sent again: %d text hits, want 4", st.Cache.TextHits)
	}
	prepare(0)
	if st := stats(); st.Cache.TextHits != 4 || st.Cache.Aliases != 4 {
		t.Errorf("the first text sent again: %+v, want it parsed and 4 aliases kept", st.Cache)
	}
}
