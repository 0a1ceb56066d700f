package mmdb_test

// One benchmark per table and figure of the paper. Each iteration
// regenerates the corresponding experiment (at a reduced scale where the
// full 1984 workload would be wastefully slow on every -benchmem run);
// `go run ./cmd/mmdbench` prints the full-size outputs recorded in
// EXPERIMENTS.md.

import (
	"context"
	"fmt"
	"mmdb"
	"strings"
	"testing"
	"time"

	"mmdb/internal/core"
	"mmdb/internal/cost"
	"mmdb/internal/experiments"
	"mmdb/internal/join"
	"mmdb/internal/simio"
	"mmdb/internal/workload"
)

// BenchmarkTable1Analytic prices the §2 crossover grid (Table 1).
func BenchmarkTable1Analytic(b *testing.B) {
	base := core.AccessParams{R: 1_000_000, K: 8, L: 100, P: 4096}
	ys := []float64{0.5, 0.7, 0.9, 1.0}
	zs := []float64{10, 20, 30}
	for i := 0; i < b.N; i++ {
		core.Table1(base, ys, zs, 1000)
	}
}

// BenchmarkTable1Empirical drives real AVL and B+-tree lookups through the
// random-replacement buffer pool (Table 1 validation).
func BenchmarkTable1Empirical(b *testing.B) {
	cfg := experiments.DefaultTable1Config()
	cfg.EmpiricalR = 10000
	cfg.Lookups = 300
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTable1(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure1Analytic evaluates the four §3 cost formulas over the
// whole ratio grid (Figure 1, analytic curves).
func BenchmarkFigure1Analytic(b *testing.B) {
	p := cost.DefaultParams()
	w := core.Table2Workload()
	ratios := core.DefaultRatios()
	for i := 0; i < b.N; i++ {
		if _, err := core.Figure1(p, w, ratios); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure1Executed runs all four real join operators at one
// representative memory point of the scaled-down Figure 1 workload.
func BenchmarkFigure1Executed(b *testing.B) {
	for _, alg := range []join.Algorithm{join.SortMerge, join.SimpleHash, join.GraceHash, join.HybridHash} {
		b.Run(alg.String(), func(b *testing.B) {
			clock := cost.NewClock(cost.DefaultParams())
			disk := simio.NewDisk(clock, 4096)
			r := workload.MustGenerate(disk, workload.RelationSpec{Name: "R", Tuples: 10000, KeyDomain: 10000, Seed: 1})
			s := workload.MustGenerate(disk, workload.RelationSpec{Name: "S", Tuples: 10000, KeyDomain: 10000, Seed: 2})
			spec := join.Spec{R: r, S: s, M: 60, F: 1.2}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := join.Run(alg, spec, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGraceParallel runs the GRACE join with 16 partitions serially
// and with one worker per core. The virtual-clock results are bit-identical
// at every width; the wall-clock ratio between the two sub-benchmarks is
// the partition-phase speedup (≈1 on a single-core host, ≥1.5x with 4+
// cores — see EXPERIMENTS.md "Parallel execution").
func BenchmarkGraceParallel(b *testing.B) {
	for _, tc := range []struct {
		name        string
		parallelism int
	}{
		{"serial", 1},
		{"gomaxprocs", -1},
	} {
		b.Run(tc.name, func(b *testing.B) {
			clock := cost.NewClock(cost.DefaultParams())
			disk := simio.NewDisk(clock, 4096)
			r := workload.MustGenerate(disk, workload.RelationSpec{Name: "R", Tuples: 10000, KeyDomain: 10000, Seed: 1})
			s := workload.MustGenerate(disk, workload.RelationSpec{Name: "S", Tuples: 10000, KeyDomain: 10000, Seed: 2})
			spec := join.Spec{R: r, S: s, M: 60, F: 1.2, GraceParts: 16, Parallelism: tc.parallelism}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := join.Run(join.GraceHash, spec, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable3Sweep prices every corner of the sensitivity box
// (Table 3).
func BenchmarkTable3Sweep(b *testing.B) {
	settings := core.Table3Settings()
	ratios := core.DefaultRatios()
	for i := 0; i < b.N; i++ {
		if _, err := core.Table3Sweep(settings, ratios); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAggregates runs the §3.9 hash aggregate at tight and ample
// memory.
func BenchmarkAggregates(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAgg(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanner runs the §4 full-vs-hash-only optimization comparison.
func BenchmarkPlanner(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunPlanner(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecoveryThroughput simulates the §5.2/§5.4 commit disciplines
// for one virtual second each and reports virtual TPS.
func BenchmarkRecoveryThroughput(b *testing.B) {
	cases := []struct {
		name string
		cfg  mmdb.RecoveryConfig
	}{
		{"flush-per-commit", mmdb.RecoveryConfig{Policy: mmdb.FlushPerCommit}},
		{"group-commit", mmdb.RecoveryConfig{Policy: mmdb.GroupCommit}},
		{"group-commit-4logs", mmdb.RecoveryConfig{Policy: mmdb.GroupCommit, LogDevices: 4, Terminals: 200}},
		{"stable-memory", mmdb.RecoveryConfig{Policy: mmdb.StableMemoryCommit}},
		{"stable-compressed", mmdb.RecoveryConfig{Policy: mmdb.StableMemoryCommit, CompressLog: true}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			var tps float64
			for i := 0; i < b.N; i++ {
				cfg := tc.cfg
				cfg.Seed = int64(i)
				sim, err := mmdb.NewRecoverySim(cfg)
				if err != nil {
					b.Fatal(err)
				}
				stats := sim.Run(time.Second)
				tps = stats.TPS
			}
			b.ReportMetric(tps, "virtual-tps")
		})
	}
}

// BenchmarkAblations runs the footnote/future-work studies (paged binary
// tree, replacement policies, partition sizing, TID modeling, versioning
// vs locking).
func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAblations(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpointRecovery measures crash recovery after a checkpointed
// run (§5.3/§5.5).
func BenchmarkCheckpointRecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sim, err := mmdb.NewRecoverySim(mmdb.RecoveryConfig{
			Policy:     mmdb.GroupCommit,
			Accounts:   4096,
			Checkpoint: true,
			Seed:       int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		sim.Run(time.Second)
		if _, _, err := sim.CrashAndRecover(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDeleteWhere times the oltp workload's DELETE: k fresh rows
// appended to a 100k-row relation with a B+-tree on id, then removed by
// `DELETE … WHERE id >= 100000`. Only the DELETE is timed; it should cost
// O(k), not O(relation).
func BenchmarkDeleteWhere(b *testing.B) {
	const rows = 100_000
	db, err := mmdb.Open(mmdb.Options{})
	if err != nil {
		b.Fatal(err)
	}
	emp, err := db.CreateRelation("emp", mmdb.MustSchema(
		mmdb.Field{Name: "id", Kind: mmdb.Int64},
		mmdb.Field{Name: "dept", Kind: mmdb.Int64},
		mmdb.Field{Name: "salary", Kind: mmdb.Int64},
		mmdb.Field{Name: "name", Kind: mmdb.String, Size: 16},
	))
	if err != nil {
		b.Fatal(err)
	}
	insert := func(from, n int) {
		for i := from; i < from+n; i++ {
			err := emp.Insert(mmdb.IntValue(int64(i)), mmdb.IntValue(int64(i%100)),
				mmdb.IntValue(int64(1000+i%5000)), mmdb.StringValue("emp"))
			if err != nil {
				b.Fatal(err)
			}
		}
		if err := emp.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	insert(0, rows)
	if err := emp.CreateIndex("id", mmdb.BTree); err != nil {
		b.Fatal(err)
	}
	fresh := db.MustWhere("emp", "id", mmdb.Ge, mmdb.IntValue(rows))
	for _, k := range []int{1, 10, 100} {
		b.Run(fmt.Sprint("k=", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				insert(rows, k)
				b.StartTimer()
				if n, err := emp.DeleteWhere(fresh); err != nil || n != int64(k) {
					b.Fatalf("deleted %d of %d: %v", n, k, err)
				}
			}
		})
	}
}

// analyticDB loads the analytic workload's shape through the public API:
// emp(id, dept, salary) with 100k rows over 1,000 departments and
// proj(emp, hours) with 80k rows, under a 400-page budget split between
// two query slots, so each statement gets a 200-page grant — smaller
// than either relation.
func analyticDB(b *testing.B) *mmdb.Database {
	b.Helper()
	const empRows, projRows = 100_000, 80_000
	db, err := mmdb.Open(mmdb.Options{MemoryPages: 400, MaxConcurrentQueries: 2})
	if err != nil {
		b.Fatal(err)
	}
	emp, err := db.CreateRelation("emp", mmdb.MustSchema(
		mmdb.Field{Name: "id", Kind: mmdb.Int64},
		mmdb.Field{Name: "dept", Kind: mmdb.Int64},
		mmdb.Field{Name: "salary", Kind: mmdb.Int64},
	))
	if err != nil {
		b.Fatal(err)
	}
	for i := int64(0); i < empRows; i++ {
		if err := emp.Insert(mmdb.IntValue(i), mmdb.IntValue(i*7919%1000), mmdb.IntValue(30_000+i*104_729%100_000)); err != nil {
			b.Fatal(err)
		}
	}
	proj, err := db.CreateRelation("proj", mmdb.MustSchema(
		mmdb.Field{Name: "emp", Kind: mmdb.Int64},
		mmdb.Field{Name: "hours", Kind: mmdb.Int64},
	))
	if err != nil {
		b.Fatal(err)
	}
	for i := int64(0); i < projRows; i++ {
		if err := proj.Insert(mmdb.IntValue(i*7919%projRows*empRows/projRows), mmdb.IntValue(1+i%200)); err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range []*mmdb.Relation{emp, proj} {
		if err := r.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	s, err := db.NewSession(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	if got := s.GrantedPages(); got != 200 {
		b.Fatalf("default grant is %d pages, want 200", got)
	}
	s.Close()
	return db
}

// BenchmarkSQLTopKFiltered times the analytic top-k statement end to end
// through Database.Query: about 100 of 100k rows qualify, and only those
// are sorted.
func BenchmarkSQLTopKFiltered(b *testing.B) {
	db := analyticDB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := fmt.Sprintf("SELECT * FROM emp WHERE dept = %d ORDER BY salary DESC LIMIT 10", i%1000)
		if res, err := db.Query(q); err != nil || len(res.Rows) != 10 {
			b.Fatalf("%s: %v", q, err)
		}
	}
}

// BenchmarkSQLJoinFiltered times the analytic window join end to end
// through Database.Query: a 2,000-id window of emp joined with proj.
func BenchmarkSQLJoinFiltered(b *testing.B) {
	db := analyticDB(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := i % 49 * 2000
		q := fmt.Sprintf("SELECT emp.id, emp.salary, proj.hours FROM emp JOIN proj ON emp.id = proj.emp"+
			" WHERE emp.id >= %d AND emp.id < %d", lo, lo+2000)
		if res, err := db.Query(q); err != nil || len(res.Rows) == 0 {
			b.Fatalf("%s: %v", q, err)
		}
	}
}

// BenchmarkSQLInsertBatch times a 100-row INSERT end to end through
// Cluster.Query on a 1-primary 1-replica cluster with a B+-tree on id:
// parse and bind, one exclusive intent, heap append and flush, index
// upkeep and one replication record per statement. The replica applies
// concurrently; the run ends by checking it matches the primary.
func BenchmarkSQLInsertBatch(b *testing.B) {
	c, err := mmdb.OpenCluster(mmdb.Options{}, 1)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	emp, err := c.Primary().CreateRelation("emp", mmdb.MustSchema(
		mmdb.Field{Name: "id", Kind: mmdb.Int64},
		mmdb.Field{Name: "dept", Kind: mmdb.Int64},
		mmdb.Field{Name: "salary", Kind: mmdb.Int64}))
	if err != nil {
		b.Fatal(err)
	}
	if err := emp.CreateIndex("id", mmdb.BTree); err != nil {
		b.Fatal(err)
	}
	const rows = 100
	var sb strings.Builder
	id := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sb.Reset()
		sb.WriteString("INSERT INTO emp VALUES ")
		for r := 0; r < rows; r++ {
			if r > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, %d, %d)", id, id%100, 1000+id%997)
			id++
		}
		if res, err := c.Query(sb.String()); err != nil || res.Affected != rows {
			b.Fatalf("INSERT: %v", err)
		}
	}
	b.StopTimer()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := c.WaitCaughtUp(ctx); err != nil {
		b.Fatal(err)
	}
	if err := c.VerifyReplicas(); err != nil {
		b.Fatal(err)
	}
}
