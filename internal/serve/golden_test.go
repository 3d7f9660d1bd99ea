package serve

import (
	"encoding/json"
	"flag"
	"net/http"
	"os"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// TestExecuteRowsGolden pins the /execute body with include_rows for
// the optimal plans of Q3 and Q10: their rows hold strings, dates,
// integers and floats, so the file pins how each kind renders on the
// wire, next to the digest. Only elapsed_ms, a timing, is zeroed.
func TestExecuteRowsGolden(t *testing.T) {
	srv, _ := newTestServer(t)
	h := srv.Handler()
	var got []byte
	for _, q := range []string{"Q3", "Q10"} {
		var er ExecuteResponse
		post(t, h, "/execute", ExecuteRequest{QueryRequest: QueryRequest{Query: q}, IncludeRows: true}, http.StatusOK, &er)
		er.ElapsedMs = 0
		blob, err := json.MarshalIndent(er, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, "== "+q+"\n"...)
		got = append(append(got, blob...), '\n')
	}
	const path = "testdata/execute_rows.golden"
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("output differs from %s; run the test with -update and inspect git diff", path)
	}
}
