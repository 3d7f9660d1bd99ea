package engine_test

import (
	"context"
	"fmt"
	"math/big"
	"slices"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/storage"
	"repro/internal/tpch"
)

// countersBudget is the work budget the execute-governed benchmark
// workload runs under; some sampled plans trip it, so the golden table
// also pins where the Governor truncates.
const countersBudget = 16_000

var countersDB *storage.DB

// benchTPCH is the benchmark's data set (sf=0.001, seed 42): at the
// tiny test scale Q5's result is empty.
func benchTPCH(t *testing.T) *storage.DB {
	t.Helper()
	if countersDB == nil {
		db, err := tpch.NewDB(0.001, 42)
		if err != nil {
			t.Fatal(err)
		}
		countersDB = db
	}
	return countersDB
}

// countersRun is what one governed execution reports to its callers: the
// feedback loop reads the per-operator Rows/Opens, the Governor decides
// truncation on RowsExamined, and /execute returns the digest.
type countersRun struct {
	rank      string
	digest    string
	examined  int64
	truncated string // truncation reason, "" for a complete run
	ops       string // "name:rows/opens" per operator, in build order
}

// goldenCounters pins, for the optimal plan and four seeded ranks of
// each query of countersQueries, exactly what the executor counted. Any
// change in what an operator emits, in which order, how often it is
// opened, or where the budget trips shows up here.
var goldenCounters = map[string][]countersRun{
	"Q3": {
		{"32952", "2257c5a28ddf0196e07991e7bb4ad8a9b4505c58f2cf128c158b727636c41ad4", 7886, "",
			"1.2:35/1 2.2:721/1 4.7:158/1 3.2:3285/1 6.11:26/1 7.2:10/1 8.2:10/1"},
		{"572248", "2257c5a28ddf0196e07991e7bb4ad8a9b4505c58f2cf128c158b727636c41ad4", 7912, "",
			"1.4:35/1 2.3:721/1 3.5:3285/1 5.7:148/1 6.16:26/1 6.19:26/1 7.3:10/1 7.4:10/1 8.3:10/1"},
		{"422014", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 16001, "work_budget_exceeded",
			"3.5:3285/1 3.7:52/1 1.2:35/1 1.5:35/1 2.5:721/1 4.7:158/1 4.11:8074/52 6.9:0/1 7.2:0/1 7.4:0/1 8.3:0/1"},
		{"298041", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 16001, "work_budget_exceeded",
			"1.3:11/1 2.5:7931/11 4.9:49/1 4.11:0/1 3.3:0/0 3.7:0/0 6.11:0/1 6.19:0/1 7.2:0/1 7.4:0/1 8.2:0/1"},
		{"353829", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 16001, "work_budget_exceeded",
			"3.5:17/1 1.3:35/1 2.4:721/1 2.7:11755/17 4.7:2569/17 6.9:0/1 6.19:0/1 7.3:0/1 7.4:0/1 8.2:0/1"},
	},
	"Q5": {
		{"34167618591153", "49eab3bbbf1dcd222cd62b4575a9fff27dd62bd767f4cf1baf6161021a0dd00f", 3098, "",
			"1.2:150/1 2.5:230/1 6.2:1/1 5.2:25/1 23.4:5/1 4.2:10/1 24.2:2/1 27.5:1201/1 29.32:193/1 30.69:3/1 31.2:2/1 32.2:2/1"},
		{"307223594041384", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 16001, "work_budget_exceeded",
			"5.4:25/1 5.6:25/1 4.3:10/1 4.6:10/1 16.2:10/1 16.12:2/1 2.5:230/1 2.7:230/1 3.5:6032/1 3.9:6032/1 8.8:949/1 8.11:1056/2 21.9:114/1 1.4:0/0 22.2:0/1 22.64:0/1 6.2:1/1 6.4:1/1 30.41:0/1 30.72:0/1 31.3:0/1 31.4:0/1 32.3:0/1"},
		{"226567513919650", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 16001, "work_budget_exceeded",
			"6.3:1/1 6.4:1/1 5.4:25/1 1.3:150/1 4.4:10/1 4.7:10/1 10.7:58/1 10.12:52/1 17.7:52/1 25.13:1/1 3.4:6032/1 3.9:36/1 2.2:230/1 2.8:8066/36 8.4:3/1 8.12:0/1 30.26:0/1 31.2:0/1 31.4:0/1 32.3:0/1"},
		{"160009556676495", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 16001, "work_budget_exceeded",
			"6.3:1/1 6.4:1/1 3.5:6032/1 3.8:6032/1 4.4:10/1 4.5:10/1 1.2:150/1 1.6:150/1 10.3:58/1 10.14:8/1 2.5:230/1 2.6:1814/8 11.4:17/1 15.42:7/1 5.2:25/1 5.5:175/7 22.38:7/1 30.38:0/1 30.72:0/1 31.2:0/1 31.4:0/1 32.2:0/1"},
		{"189960779781143", "49eab3bbbf1dcd222cd62b4575a9fff27dd62bd767f4cf1baf6161021a0dd00f", 10223, "",
			"1.3:150/1 6.2:1/1 5.2:25/1 5.6:25/1 23.2:5/1 23.11:5/1 4.4:10/1 4.5:10/1 24.3:2/1 24.19:300/150 25.26:7/1 25.29:7/1 2.3:230/1 2.7:230/1 3.3:6032/1 8.7:949/1 8.13:949/1 30.24:3/1 30.72:3/1 31.3:2/1 31.4:2/1 32.2:2/1"},
	},
	"Q7": {
		{"17402621395752", "04f3305684e12c4d80c6c4defba2ae4560c61d14245efd0776778779ebdbde9f", 2710, "",
			"4.2:150/1 1.2:10/1 5.2:25/1 13.7:10/1 6.2:250/10 22.9:1/1 23.5:164/1 3.2:1500/1 24.2:164/1 31.104:10/1 32.2:2/1 33.2:2/1"},
		{"38402949255173", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 16001, "work_budget_exceeded",
			"2.2:1710/1 2.7:5/1 3.3:1500/1 3.6:7034/5 8.9:5/1 4.4:750/5 11.13:5/1 1.3:10/1 6.4:25/1 5.4:625/25 21.2:2/1 21.7:2/1 22.11:1/1 22.16:5/5 31.98:0/1 32.2:0/1 32.3:0/1 33.2:0/1"},
		{"28320939239956", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 16001, "work_budget_exceeded",
			"1.2:10/1 1.6:6/1 2.4:1710/1 2.7:9109/6 7.9:844/1 7.12:0/1 3.3:0/0 3.7:0/0 4.2:0/0 4.7:0/0 10.8:0/0 10.11:0/0 12.22:0/1 12.27:0/1 6.3:0/0 6.5:0/0 20.21:0/1 20.35:0/1 5.3:0/0 5.5:0/0 31.50:0/1 32.2:0/1 32.3:0/1 33.2:0/1"},
		{"63893796640325", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 16001, "work_budget_exceeded",
			"2.2:1710/1 2.7:76/1 1.2:10/1 6.3:25/1 6.5:25/1 5.2:625/25 21.2:2/1 21.5:2/1 22.11:1/1 22.16:1/1 4.2:150/1 4.6:150/1 26.7:8/1 3.5:1500/1 3.7:1500/1 29.7:77/1 29.31:5817/76 31.126:0/1 32.2:0/1 32.3:0/1 33.3:0/1"},
		{"20001194584561", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 16001, "work_budget_exceeded",
			"2.4:1710/1 2.9:1710/1 1.3:10/1 1.5:10/1 7.2:1710/1 4.2:150/1 3.3:1500/1 3.7:1500/1 10.2:1500/1 10.13:383/1 6.3:25/1 6.5:25/1 5.3:25/1 5.5:625/25 21.2:2/1 21.6:764/382 28.17:30/1 28.24:0/1 31.120:0/1 32.2:0/1 33.2:0/1"},
	},
	"Q8": {
		{"29552462553474576", "4dd60175c6ff1454610e53ab987704cac87a1700d0119fa18b767088c34489f8", 2033, "",
			"8.2:1/1 6.2:25/1 36.4:5/1 1.2:2/1 9.10:60/1 4.2:428/1 13.11:17/1 5.2:150/1 18.15:17/1 40.15:5/1 2.2:10/1 42.7:5/1 7.2:25/1 44.7:5/1 45.2:2/1 46.2:2/1"},
		{"629193920596754629", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 16001, "work_budget_exceeded",
			"3.2:6032/1 3.9:831/1 2.4:8307/831 10.4:831/1 10.11:0/1 1.2:0/0 11.4:0/1 5.2:0/0 5.5:0/0 4.2:0/0 4.7:0/0 16.4:0/0 20.27:0/1 20.36:0/1 6.4:0/0 6.5:0/0 26.26:0/1 26.45:0/1 7.4:0/0 35.30:0/1 35.52:0/1 8.3:0/0 8.4:0/0 44.32:0/1 45.2:0/1 45.3:0/1 46.3:0/1"},
		{"464010268507445211", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 16001, "work_budget_exceeded",
			"7.2:25/1 7.5:1/1 1.3:2/1 1.4:1/1 2.3:0/0 2.5:0/0 8.3:1/1 4.4:2/1 3.6:6032/1 3.7:8517/2 12.4:7/1 5.2:150/1 5.5:1050/7 17.13:7/1 17.19:0/1 6.4:0/0 23.15:0/1 23.29:0/1 39.15:0/1 39.36:0/1 41.41:0/1 41.44:0/1 42.51:0/1 42.52:0/1 44.55:0/1 45.2:0/1 45.3:0/1 46.2:0/1"},
		{"327699572073463349", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 16001, "work_budget_exceeded",
			"8.2:1/1 8.4:1/1 6.2:25/1 6.5:25/1 36.2:5/1 36.11:1/1 7.4:0/0 7.5:0/0 1.2:2/1 2.2:10/1 2.6:2/1 3.4:6032/1 3.9:8788/2 10.9:907/1 10.13:0/1 11.16:0/1 4.3:0/0 4.7:0/0 5.4:0/0 5.5:0/0 16.7:0/0 16.12:0/0 20.27:0/1 20.37:0/1 33.21:0/1 44.26:0/1 45.2:0/1 45.3:0/1 46.2:0/1"},
		{"389039676991781550", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 16001, "work_budget_exceeded",
			"4.2:428/1 4.6:428/1 5.3:150/1 16.7:428/1 16.12:1/1 1.3:2/1 1.4:1/1 2.4:10/1 3.5:6032/1 3.7:3623/1 10.7:3622/1 10.11:0/1 11.18:0/1 20.14:0/1 20.37:0/1 7.2:0/0 33.24:0/1 6.2:0/0 35.9:0/1 35.52:0/1 8.3:1/1 8.4:1/1 44.33:0/1 45.2:0/1 45.3:0/1 46.2:0/1"},
	},
	"Q9": {
		{"894276530276", "85ccc82c74a5accf8674be1abb0497461a442690ebaefff1cd4f12e8c7e27abf", 3273, "",
			"2.2:10/1 6.2:25/1 22.7:10/1 1.2:6/1 7.10:162/1 4.2:800/1 11.11:162/1 26.13:162/1 5.2:1500/1 30.13:162/1 31.2:40/1 32.2:40/1"},
		{"9600737313793", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 16001, "work_budget_exceeded",
			"4.4:800/1 4.5:800/1 5.3:1500/1 5.6:1/1 3.4:6032/1 3.7:573/1 2.4:5723/573 8.4:572/1 8.12:0/1 9.5:0/1 9.20:0/1 17.14:0/1 21.27:0/1 6.2:0/0 6.5:0/0 30.26:0/1 31.2:0/1 31.3:0/1 32.3:0/1"},
		{"7080234809989", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 16001, "work_budget_exceeded",
			"4.2:800/1 4.5:1/1 1.2:6/1 2.3:3/1 3.4:13626/3 8.9:1371/1 6.2:0/0 23.11:0/1 23.20:0/1 24.24:0/1 5.5:0/0 28.9:0/1 28.36:0/1 30.41:0/1 31.2:0/1 31.3:0/1 32.2:0/1"},
		{"5000298646140", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 16001, "work_budget_exceeded",
			"1.3:1/1 3.3:20/1 2.4:10/1 2.5:192/20 8.4:20/1 4.3:15717/20 12.13:28/1 12.20:0/1 13.28:0/1 6.2:0/0 26.23:0/1 26.37:0/1 5.2:0/0 5.6:0/0 30.15:0/1 31.2:0/1 31.3:0/1 32.2:0/1"},
		{"5936274368160", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 16001, "work_budget_exceeded",
			"5.2:1500/1 4.4:800/1 1.3:6/1 3.5:6032/1 3.7:6032/1 7.8:162/1 7.13:97/1 2.4:961/97 9.9:96/1 13.12:96/1 13.29:0/1 21.18:0/1 21.38:0/1 6.3:25/1 30.27:0/1 31.2:0/1 31.3:0/1 32.2:0/1"},
	},
	"Q10": {
		{"1578", "81aee9b37e2e4b338f71948b096bf02dc58b019777080ea457d37c90319871c2", 8084, "",
			"4.2:25/1 1.2:150/1 8.2:150/1 2.5:62/1 9.2:62/1 3.2:1985/1 10.2:79/1 11.2:43/1 12.2:43/1"},
		{"108035809", "81aee9b37e2e4b338f71948b096bf02dc58b019777080ea457d37c90319871c2", 8364, "",
			"3.5:1985/1 2.5:62/1 4.2:25/1 4.5:25/1 1.4:150/1 1.6:150/1 8.3:150/1 9.16:62/1 9.19:62/1 10.24:79/1 11.2:43/1 11.4:43/1 12.3:43/1"},
		{"76298502", "81aee9b37e2e4b338f71948b096bf02dc58b019777080ea457d37c90319871c2", 8242, "",
			"3.2:1985/1 4.3:25/1 1.4:150/1 2.5:62/1 5.7:62/1 5.12:62/1 9.8:62/1 9.19:62/1 10.24:79/1 10.27:79/1 11.2:43/1 11.4:43/1 12.2:43/1"},
		{"90580358", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 16001, "work_budget_exceeded",
			"3.2:223/1 2.4:62/1 2.7:13824/223 6.4:7/1 6.11:0/1 4.3:0/0 1.2:0/0 1.5:0/0 8.4:0/0 10.22:0/1 10.27:0/1 11.3:0/1 11.4:0/1 12.2:0/1"},
		{"15310081", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 16001, "work_budget_exceeded",
			"3.6:1985/1 3.7:1/1 4.2:1/1 2.4:57/1 1.3:150/1 1.5:8526/57 5.4:57/1 5.11:0/1 9.9:0/1 9.19:0/1 10.26:0/1 11.2:0/1 12.2:0/1"},
	},
}

func executeCounters(t *testing.T, sess *engine.Session, sqlText string, rank *big.Int) countersRun {
	t.Helper()
	exe, err := sess.Execute(context.Background(), sqlText, rank, exec.Options{MaxIntermediateRows: countersBudget})
	if err != nil {
		t.Fatal(err)
	}
	st := exe.Result.Stats
	ops := make([]string, len(st.Operators))
	for i, op := range st.Operators {
		ops[i] = fmt.Sprintf("%s:%d/%d", op.Name, op.Rows, op.Opens)
	}
	return countersRun{
		rank:      exe.Rank.String(),
		digest:    exe.Result.Digest(),
		examined:  st.RowsExamined,
		truncated: st.Reason,
		ops:       strings.Join(ops, " "),
	}
}

// countersQueries is the execute-governed benchmark's queries plus the
// paper's: Q7 and Q8 filter on nation names, and Q8 aggregates a CASE
// over a string comparison.
func countersQueries() []string {
	qs := []string{"Q3", "Q5", "Q9", "Q10"}
	for _, q := range tpch.PaperQueries() {
		if !slices.Contains(qs, q) {
			qs = append(qs, q)
		}
	}
	return qs
}

// TestExecutionCountersGolden runs every pinned plan and compares its
// counters with the recorded ones.
func TestExecutionCountersGolden(t *testing.T) {
	sess := engine.New(benchTPCH(t)).Session()
	for _, q := range countersQueries() {
		t.Run(q, func(t *testing.T) {
			sqlText, ok := tpch.Query(q)
			if !ok {
				t.Fatalf("unknown query %s", q)
			}
			got := []countersRun{executeCounters(t, sess, sqlText, nil)}
			p, err := sess.Prepare(sqlText)
			if err != nil {
				t.Fatal(err)
			}
			smp, err := p.Sampler(11)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 4; i++ {
				got = append(got, executeCounters(t, sess, sqlText, smp.NextRank()))
			}
			want := goldenCounters[q]
			same := len(got) == len(want)
			for i := 0; same && i < len(got); i++ {
				same = got[i] == want[i]
			}
			if !same {
				var sb strings.Builder
				for _, r := range got {
					fmt.Fprintf(&sb, "\t\t{%q, %q, %d, %q,\n\t\t\t%q},\n", r.rank, r.digest, r.examined, r.truncated, r.ops)
				}
				t.Errorf("counters differ from the golden table; got\n\t%q: {\n%s\t},", q, sb.String())
			}
		})
	}
}
