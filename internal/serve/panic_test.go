package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/tpch"
)

// TestHandlerRecoversPanic serves through a query resolver that panics
// on one name: that request answers 500 with the JSON error body, the
// panic is counted in /stats (panics and errors) and its stack logged
// once, and the next request is served as usual.
func TestHandlerRecoversPanic(t *testing.T) {
	resolve := func(name string) (string, bool) {
		if name == "boom" {
			panic("resolver exploded")
		}
		return tpch.Query(name)
	}
	srv := New(engine.New(testDB(t)), WithQueryResolver(resolve))
	var logged []string
	srv.logf = func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) }
	h := srv.Handler()
	stats := func() StatsResponse {
		t.Helper()
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/stats", nil))
		var st StatsResponse
		if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		return st
	}

	var er errorResponse
	post(t, h, "/count", QueryRequest{Query: "boom"}, http.StatusInternalServerError, &er)
	if er.Error == "" || strings.Contains(er.Error, "resolver exploded") {
		t.Errorf("error body %q: want a generic error, the panic value only in the log", er.Error)
	}
	if len(logged) != 1 || !strings.Contains(logged[0], "resolver exploded") || !strings.Contains(logged[0], "goroutine") {
		t.Errorf("want the panic and its stack logged once, got %q", logged)
	}

	if st := stats(); st.Panics != 1 || st.Errors != 1 {
		t.Errorf("after one panic: panics %d, errors %d; want 1 and 1", st.Panics, st.Errors)
	}

	var info SpaceInfo
	post(t, h, "/count", QueryRequest{Query: "Q5"}, http.StatusOK, &info)
	if info.Count == "" || info.Count == "0" {
		t.Errorf("request after the panic: count %q", info.Count)
	}
	if st := stats(); st.Panics != 1 || st.Errors != 1 {
		t.Errorf("after a served request: panics %d, errors %d; want 1 and 1", st.Panics, st.Errors)
	}
}
