package engine

import (
	"errors"
	"fmt"
	"math/big"
	"strings"
	"sync"
	"testing"

	"repro/internal/storage"
	"repro/internal/tpch"
)

const aliasQuery = `SELECT n_name, COUNT(l_orderkey) AS items
	FROM customer, orders, lineitem, nation
	WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey AND c_nationkey = n_nationkey
	GROUP BY n_name ORDER BY n_name`

// aliasDB returns a private database, so schema bumps stay in one test.
func aliasDB(t testing.TB) *storage.DB {
	t.Helper()
	db, err := tpch.NewDB(0.0004, 42)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// variant returns a text of aliasQuery's structure that differs from
// every other i's: a leading comment and trailing blanks.
func variant(i int) string {
	return fmt.Sprintf("-- variant %d\n%s%s", i, aliasQuery, strings.Repeat(" ", i%3))
}

func mustPrepare(t testing.TB, s *Session, sqlText string) *Prepared {
	t.Helper()
	p, err := s.Prepare(sqlText)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// checkAliases checks the alias map against the entries under the
// cache lock: every alias names a resident entry that lists it, no
// entry lists more than maxAliases texts, and each ready entry's bytes
// are its structure's plus its aliases', which sum to the cache's.
func checkAliases(t testing.TB, c *SpaceCache) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	listed := 0
	var bytes int64
	for _, e := range c.entries {
		if len(e.aliases) > maxAliases {
			t.Errorf("entry %s holds %d aliases, cap %d", e.fp, len(e.aliases), maxAliases)
		}
		for _, k := range e.aliases {
			if a, ok := c.texts[k]; !ok || a.e != e {
				t.Errorf("entry %s lists alias %q, which the text map does not give it", e.fp, k.text)
			}
		}
		listed += len(e.aliases)
		if !e.done() {
			continue
		}
		want := e.val.SizeBytes()
		for _, k := range e.aliases {
			want += aliasBytes(k)
		}
		if e.bytes != want {
			t.Errorf("entry %s charged %d bytes, want %d", e.fp, e.bytes, want)
		}
		bytes += e.bytes
	}
	if listed != len(c.texts) {
		t.Errorf("entries list %d aliases, the text map holds %d", listed, len(c.texts))
	}
	if bytes != c.bytes {
		t.Errorf("cache charged %d bytes, its entries %d", c.bytes, bytes)
	}
}

// TestTextHitSharesStructure: preparing a text again answers it through
// its alias: the same StructureSpace and costing as the parse path,
// counted as a structure hit and a text hit.
func TestTextHitSharesStructure(t *testing.T) {
	e := New(aliasDB(t))
	s := e.Session()
	p1 := mustPrepare(t, s, aliasQuery)
	if p1.Cached {
		t.Fatal("first Prepare reported a cache hit")
	}
	p2 := mustPrepare(t, s, aliasQuery)
	if !p2.Cached || !p2.OverlayCached {
		t.Errorf("text hit: cached=%v overlay_cached=%v, want both", p2.Cached, p2.OverlayCached)
	}
	if p2.Shared != p1.Shared || p2.Opt != p1.Opt || p2.UsePlan != nil {
		t.Error("text hit resolved to another structure or costing than the parse path")
	}
	st := e.Cache().Stats()
	if st.Hits != 1 || st.TextHits != 1 || st.Misses != 1 || st.Aliases != 1 {
		t.Errorf("stats %+v, want 1 hit, 1 text hit, 1 miss, 1 alias", st)
	}
	// Another text of the structure parses, hits the fingerprint and
	// becomes the entry's second alias.
	p3 := mustPrepare(t, s, variant(0))
	if !p3.Cached || p3.Shared != p1.Shared {
		t.Error("a variant text missed the structure")
	}
	if st := e.Cache().Stats(); st.Hits != 2 || st.TextHits != 1 || st.Aliases != 2 {
		t.Errorf("stats %+v, want 2 hits, 1 text hit, 2 aliases", st)
	}
	checkAliases(t, e.Cache())
}

// TestAliasGoesWithItsEntry: a schema bump, an eviction and a failed
// build each leave no alias behind, and the text parses again.
func TestAliasGoesWithItsEntry(t *testing.T) {
	t.Run("schema bump", func(t *testing.T) {
		db := aliasDB(t)
		e := New(db)
		p1 := mustPrepare(t, e.Session(), aliasQuery)
		db.Catalog().BumpSchema()
		p2 := mustPrepare(t, e.Session(), aliasQuery)
		if p2.Cached || p2.Shared == p1.Shared {
			t.Error("text served the structure of an older schema")
		}
		st := e.Cache().Stats()
		if st.TextHits != 0 || st.Invalidations != 1 || st.Aliases != 1 {
			t.Errorf("stats %+v, want no text hit, 1 invalidation, 1 alias (the new entry's)", st)
		}
		checkAliases(t, e.Cache())
	})
	t.Run("eviction", func(t *testing.T) {
		e := New(aliasDB(t), WithCache(NewSpaceCache(1)))
		mustPrepare(t, e.Session(), aliasQuery)
		mustPrepare(t, e.Session(), "SELECT r_name FROM region") // evicts aliasQuery's entry
		if st := e.Cache().Stats(); st.Evictions != 1 || st.Aliases != 1 {
			t.Fatalf("stats %+v, want 1 eviction, 1 alias", st)
		}
		if p := mustPrepare(t, e.Session(), aliasQuery); p.Cached {
			t.Error("an evicted structure answered its text")
		}
		if st := e.Cache().Stats(); st.TextHits != 0 {
			t.Errorf("%d text hits after the eviction, want 0", st.TextHits)
		}
		checkAliases(t, e.Cache())
	})
	t.Run("failed build", func(t *testing.T) {
		e := New(aliasDB(t))
		for i := 0; i < 2; i++ {
			if _, err := e.Prepare("SELECT no_such_column FROM region"); err == nil {
				t.Fatal("a query over an unknown column prepared")
			}
		}
		if st := e.Cache().Stats(); st.Misses != 2 || st.TextHits != 0 || st.Aliases != 0 || st.BytesCached != 0 {
			t.Errorf("stats %+v, want 2 misses and nothing cached", st)
		}
		// The cache never aliases an entry whose build failed, nor one
		// that is no longer resident.
		c := NewSpaceCache(2)
		k := textKey{text: "q"}
		failed, _, _ := c.entry(fp(1), 1, func() (*StructureSpace, error) { return nil, errors.New("boom") })
		c.alias(failed, k, nil)
		if _, _, ok := c.text(k); ok {
			t.Error("a failed build took an alias")
		}
		gone, _, _ := c.entry(fp(2), 1, func() (*StructureSpace, error) { return &StructureSpace{}, nil })
		c.entry(fp(3), 2, func() (*StructureSpace, error) { return &StructureSpace{}, nil }) // invalidates fp(2)
		c.alias(gone, k, nil)
		if _, _, ok := c.text(k); ok {
			t.Error("an invalidated entry took an alias")
		}
		checkAliases(t, c)
	})
}

// TestAliasNotShared: sessions with different rule configurations, and
// engines over different databases that share one cache, never answer
// one another's texts.
func TestAliasNotShared(t *testing.T) {
	e := New(aliasDB(t))
	shared := NewSpaceCache(8)
	for _, tc := range []struct {
		name string
		a, b *Session
	}{
		{"rules", e.Session(), e.Session(WithCartesian(true))},
		{"catalog", New(aliasDB(t), WithCache(shared)).Session(), New(aliasDB(t), WithCache(shared)).Session()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pa := mustPrepare(t, tc.a, aliasQuery)
			pb := mustPrepare(t, tc.b, aliasQuery)
			if pb.Cached || pb.Shared == pa.Shared {
				t.Fatal("the second session was answered by the first one's alias")
			}
			again := func(s *Session, first *Prepared) {
				if p := mustPrepare(t, s, aliasQuery); !p.Cached || p.Shared != first.Shared {
					t.Error("a repeated text resolved to another structure than its first Prepare")
				}
			}
			again(tc.a, pa)
			again(tc.b, pb)
			c := tc.a.Engine().Cache()
			if st := c.Stats(); st.TextHits != 2 || st.Aliases != 2 {
				t.Errorf("stats %+v, want 2 text hits over 2 aliases", st)
			}
			checkAliases(t, c)
		})
	}
}

// TestAliasKeepsItsUsePlan: two texts of one structure with different
// OPTION (USEPLAN n) share the entry and each keeps its own number.
func TestAliasKeepsItsUsePlan(t *testing.T) {
	e := New(aliasDB(t))
	s := e.Session()
	texts := map[string]int64{
		aliasQuery + " OPTION (USEPLAN 3)": 3,
		aliasQuery + " OPTION (USEPLAN 7)": 7,
	}
	var shared *StructureSpace
	for round := 0; round < 2; round++ {
		for text, n := range texts {
			p := mustPrepare(t, s, text)
			if p.UsePlan == nil || p.UsePlan.Int64() != n {
				t.Errorf("round %d: %q prepared with USEPLAN %v, want %d", round, text, p.UsePlan, n)
			}
			if shared == nil {
				shared = p.Shared
			} else if p.Shared != shared {
				t.Error("USEPLAN variants resolved to different structures")
			}
			rank, _, err := p.Select(nil)
			if err != nil || rank.Int64() != n {
				t.Errorf("round %d: %q selected plan %v (%v), want %d", round, text, rank, err, n)
			}
		}
	}
	if st := e.Cache().Stats(); st.TextHits != 2 || st.Aliases != 2 || st.Entries != 1 {
		t.Errorf("stats %+v, want 2 text hits over 2 aliases of 1 entry", st)
	}
}

// TestOutOfRangeUsePlanNeverAliased: a text whose USEPLAN number is out
// of its space's range is not aliased and fails every time.
func TestOutOfRangeUsePlanNeverAliased(t *testing.T) {
	e := New(aliasDB(t))
	count := mustPrepare(t, e.Session(), aliasQuery).Count()
	text := fmt.Sprintf("%s OPTION (USEPLAN %s)", aliasQuery, count)
	for i := 0; i < 3; i++ {
		if _, err := e.Prepare(text); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Fatalf("attempt %d: USEPLAN %s of %s plans: err = %v", i, count, count, err)
		}
	}
	if st := e.Cache().Stats(); st.TextHits != 0 || st.Aliases != 1 {
		t.Errorf("stats %+v, want no text hit and only the valid text aliased", st)
	}
	last := new(big.Int).Sub(count, big.NewInt(1))
	if p := mustPrepare(t, e.Session(), fmt.Sprintf("%s OPTION (USEPLAN %s)", aliasQuery, last)); p.UsePlan.Cmp(last) != 0 {
		t.Errorf("USEPLAN %s prepared as %s", last, p.UsePlan)
	}
}

// TestFifthTextReplacesOldest: an entry answers its last maxAliases
// texts; a further text replaces the oldest, whose bytes go with it.
func TestFifthTextReplacesOldest(t *testing.T) {
	e := New(aliasDB(t))
	s := e.Session()
	for i := 0; i <= maxAliases; i++ {
		mustPrepare(t, s, variant(i))
	}
	checkAliases(t, e.Cache())
	if st := e.Cache().Stats(); st.Aliases != maxAliases || st.Entries != 1 {
		t.Fatalf("stats %+v, want %d aliases of 1 entry", st, maxAliases)
	}
	for i := 1; i <= maxAliases; i++ {
		before := e.Cache().Stats().TextHits
		mustPrepare(t, s, variant(i))
		if e.Cache().Stats().TextHits != before+1 {
			t.Errorf("variant %d, one of the last %d texts, was parsed", i, maxAliases)
		}
	}
	before := e.Cache().Stats().TextHits
	mustPrepare(t, s, variant(0))
	if e.Cache().Stats().TextHits != before {
		t.Error("the oldest text was answered after a fifth replaced it")
	}
	checkAliases(t, e.Cache())
}

// TestAliasConcurrent mixes text hits, parse-path variants, evictions
// (a two-entry cache over three structures) and schema bumps from
// several goroutines; run it under -race. Every Prepare must resolve
// to its own text's structure and USEPLAN number.
func TestAliasConcurrent(t *testing.T) {
	db := aliasDB(t)
	e := New(db, WithCache(NewSpaceCache(2)))
	texts := []string{
		aliasQuery,
		aliasQuery + " OPTION (USEPLAN 5)",
		variant(1),
		"SELECT r_name FROM region ORDER BY r_name",
		"SELECT r_name FROM region ORDER BY r_name OPTION (USEPLAN 1)",
		"SELECT n_name FROM nation, region WHERE n_regionkey = r_regionkey",
	}
	canonical := make([]string, len(texts))
	usePlan := make([]*big.Int, len(texts))
	for i, text := range texts {
		p := mustPrepare(t, e.Session(), text)
		canonical[i], usePlan[i] = p.Shared.Canonical, p.UsePlan
	}

	const workers, rounds = 4, 300
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := e.Session()
			for r := 0; r < rounds; r++ {
				i := (w + r) % len(texts)
				text := texts[i]
				if r%7 == 0 {
					text = fmt.Sprintf("-- worker %d round %d\n%s", w, r, texts[i])
				}
				p, err := s.Prepare(text)
				if err != nil {
					t.Error(err)
					return
				}
				if p.Shared.Canonical != canonical[i] || (p.UsePlan == nil) != (usePlan[i] == nil) ||
					(p.UsePlan != nil && p.UsePlan.Cmp(usePlan[i]) != 0) {
					t.Errorf("%q resolved to %q with USEPLAN %v", text, p.Shared.Canonical, p.UsePlan)
					return
				}
				if w == 0 && r%50 == 49 {
					db.Catalog().BumpSchema()
				}
			}
		}(w)
	}
	wg.Wait()
	st := e.Cache().Stats()
	if st.TextHits == 0 || st.Evictions == 0 || st.Invalidations == 0 {
		t.Errorf("stream too tame: %+v", st)
	}
	checkAliases(t, e.Cache())
}
