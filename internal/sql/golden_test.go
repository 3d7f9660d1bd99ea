package sql

import (
	"flag"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// checkGolden compares got with the named file under testdata, or
// rewrites the file when the test runs with -update (then git diff
// shows what changed).
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := "testdata/" + name
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s; run the test with -update and inspect git diff", path)
	}
}

// TestCanonicalGolden pins the rendering of every FuzzParse seed, and
// which seeds Parse rejects. Query fingerprints hash this rendering, so
// any change to it re-keys every cached space.
func TestCanonicalGolden(t *testing.T) {
	var sb strings.Builder
	for _, src := range parseSeeds {
		sb.WriteString("in:  ")
		sb.WriteString(strings.TrimRight(strings.ReplaceAll(strings.ReplaceAll(src, "\r", `\r`), "\n", `\n`), " "))
		sb.WriteString("\nout: ")
		if stmt, err := Parse(src); err != nil {
			sb.WriteString("rejected")
		} else {
			sb.WriteString(stmt.String())
		}
		sb.WriteString("\n")
	}
	checkGolden(t, "canonical.golden", sb.String())
}
