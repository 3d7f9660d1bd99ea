package engine_test

import (
	"context"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/tpch"
)

// churnLiterals lists, per template, the literal the stream varies and
// the values it takes; every variant has its own structure fingerprint
// but the template's plan space.
var churnLiterals = map[string][]string{
	"Q3":  {"'BUILDING'", "'AUTOMOBILE'", "'FURNITURE'", "'HOUSEHOLD'", "'MACHINERY'"},
	"Q5":  {"'ASIA'", "'AMERICA'", "'EUROPE'", "'AFRICA'", "'MIDDLE EAST'"},
	"Q10": {"'R'", "'A'", "'N'"},
}

// TestCacheAccountingIsDeterministic: two engines with small private
// caches over one database, fed the same stream of Prepares, executions
// and feedback applications, agree on every cache outcome and on every
// counter, bytes included. Structure and overlay sizes must depend only
// on what was built, never on allocation history (pooled or reused
// buffers), or replaying a workload would not reproduce its evictions
// and byte counts.
func TestCacheAccountingIsDeterministic(t *testing.T) {
	db := tinyTPCH(t)
	engines := [2]*engine.Engine{
		engine.New(db, engine.WithCacheLimits(4, engine.DefaultCacheBytes)),
		engine.New(db, engine.WithCacheLimits(4, engine.DefaultCacheBytes)),
	}
	templates := []string{"Q3", "Q5", "Q10"}
	executed := map[string]bool{}
	rng := rand.New(rand.NewSource(1))
	var recosts int
	for i := 0; i < 60; i++ {
		name := templates[i%len(templates)]
		q, _ := tpch.Query(name)
		lits := churnLiterals[name]
		sqlText := strings.Replace(q, lits[0], lits[rng.Intn(len(lits))], 1)
		execute := !executed[name]
		executed[name] = true
		if i%5 == 4 {
			for _, e := range engines {
				e.ApplyFeedback()
			}
		}
		var got [2][2]bool
		for j, e := range engines {
			var p *engine.Prepared
			if execute {
				exe, err := e.Session().Execute(context.Background(), sqlText, nil, exec.Options{})
				if err != nil {
					t.Fatal(err)
				}
				p = exe.Prepared
			} else {
				var err error
				if p, err = e.Prepare(sqlText); err != nil {
					t.Fatal(err)
				}
			}
			got[j] = [2]bool{p.Cached, p.OverlayCached}
		}
		if got[0] != got[1] {
			t.Fatalf("request %d (%s): engines disagree on (cached, overlay_cached): %v vs %v", i, name, got[0], got[1])
		}
		if got[0] == [2]bool{true, false} {
			recosts++
		}
		if a, b := engines[0].Cache().Stats(), engines[1].Cache().Stats(); !reflect.DeepEqual(a, b) {
			t.Fatalf("request %d: cache stats differ:\n%+v\n%+v", i, a, b)
		}
		if a, b := engines[0].Overlays().Stats(), engines[1].Overlays().Stats(); a != b {
			t.Fatalf("request %d: overlay stats differ:\n%+v\n%+v", i, a, b)
		}
	}
	// The stream must have exercised every path the counters describe.
	st, ov := engines[0].Cache().Stats(), engines[0].Overlays().Stats()
	if st.Hits == 0 || st.Evictions == 0 || recosts == 0 || ov.Invalidations == 0 || st.BytesCached == 0 || ov.BytesCached == 0 {
		t.Errorf("stream too tame: cache %+v, overlays %+v, %d re-costs", st, ov, recosts)
	}
}
