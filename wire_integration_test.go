package mmdb_test

// End-to-end tests for the SQL front door over the wire protocol:
// rows and per-query virtual counters arriving over TCP must be
// bit-identical to a direct Session call, concurrent connections
// included, and admission shedding must surface client-side as the
// engine's own typed overload error. This file is in the external test
// package because the wire server imports mmdb.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"mmdb"
	"mmdb/internal/wire"
	"mmdb/sqlclient"
)

// startWireDB builds the docs/SQL.md running example behind a wire
// server and returns the database and the server's address.
func startWireDB(t *testing.T, opts mmdb.Options) (*mmdb.Database, string) {
	t.Helper()
	db := mmdb.MustOpen(opts)
	emp, err := db.CreateRelation("emp", mmdb.MustSchema(
		mmdb.Field{Name: "id", Kind: mmdb.Int64},
		mmdb.Field{Name: "dept", Kind: mmdb.Int64},
		mmdb.Field{Name: "salary", Kind: mmdb.Int64},
		mmdb.Field{Name: "name", Kind: mmdb.String, Size: 16},
	))
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"ada", "bob", "cyd", "dee", "eli", "fay", "gus", "hal"}
	for i := 0; i < 8; i++ {
		if err := emp.Insert(mmdb.IntValue(int64(i+1)), mmdb.IntValue(int64(i%3+1)),
			mmdb.IntValue(int64(40000+1000*i)), mmdb.StringValue(names[i])); err != nil {
			t.Fatal(err)
		}
	}
	if err := emp.Flush(); err != nil {
		t.Fatal(err)
	}
	dept, err := db.CreateRelation("dept", mmdb.MustSchema(
		mmdb.Field{Name: "id", Kind: mmdb.Int64},
		mmdb.Field{Name: "budget", Kind: mmdb.Int64},
	))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := dept.Insert(mmdb.IntValue(int64(i+1)), mmdb.IntValue(int64(100*(i+1)))); err != nil {
			t.Fatal(err)
		}
	}
	if err := dept.Flush(); err != nil {
		t.Fatal(err)
	}

	srv := &wire.Server{DB: db, Name: "mmdb test"}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })
	return db, addr.String()
}

// TestWireMatchesDirect is the tentpole acceptance check: for every
// statement shape the SQL layer supports, the rows AND the per-query
// virtual counters that cross the wire are exactly what a direct
// Session call yields — from several concurrent connections at once
// (run under -race this also exercises the server's connection and
// session handling).
func TestWireMatchesDirect(t *testing.T) {
	db, addr := startWireDB(t, mmdb.Options{MemoryPages: 64, MaxConcurrentQueries: 4})
	stmts := []string{
		"SELECT id, name FROM emp WHERE salary > 42000 ORDER BY id",
		"SELECT emp.name, dept.budget FROM emp JOIN dept ON emp.dept = dept.id WHERE dept.budget >= 200 ORDER BY emp.name",
		"SELECT dept, COUNT(*), AVG(salary) FROM emp GROUP BY dept ORDER BY dept",
		"SELECT COUNT(*), MAX(salary) FROM emp",
		"SELECT dept FROM emp GROUP BY dept ORDER BY dept",
	}

	type want struct {
		rows     [][]mmdb.Value
		counters mmdb.Counters
	}
	direct := make([]want, len(stmts))
	for i, q := range stmts {
		res, err := db.Query(q)
		if err != nil {
			t.Fatalf("direct %q: %v", q, err)
		}
		direct[i] = want{rows: res.Values(), counters: res.Counters}
		if (res.Counters == mmdb.Counters{}) {
			t.Fatalf("direct %q charged nothing", q)
		}
	}

	const conns = 4
	var wg sync.WaitGroup
	errs := make(chan error, conns*len(stmts))
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := sqlclient.Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			for i, q := range stmts {
				res, err := cl.Query(q)
				if err != nil {
					errs <- fmt.Errorf("wire %q: %v", q, err)
					return
				}
				if !reflect.DeepEqual(res.Rows, direct[i].rows) {
					errs <- fmt.Errorf("wire %q rows diverge:\n wire   %v\n direct %v", q, res.Rows, direct[i].rows)
					return
				}
				if res.Counters != direct[i].counters {
					errs <- fmt.Errorf("wire %q counters %+v, direct %+v", q, res.Counters, direct[i].counters)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestWireAccessPathMatchesDirect: statements that probe a B+-tree or
// AVL index bill the same rows and counters over TCP as direct — and
// read no pages.
func TestWireAccessPathMatchesDirect(t *testing.T) {
	db, addr := startWireDB(t, mmdb.Options{MemoryPages: 64})
	emp, err := db.Relation("emp")
	if err != nil {
		t.Fatal(err)
	}
	if err := emp.CreateIndex("id", mmdb.BTree); err != nil {
		t.Fatal(err)
	}
	if err := emp.CreateIndex("dept", mmdb.AVL); err != nil {
		t.Fatal(err)
	}
	cl, err := sqlclient.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for _, q := range []string{
		"SELECT * FROM emp WHERE id = 5",
		"SELECT id, name FROM emp WHERE id >= 2 AND id < 6",
		"SELECT COUNT(*), SUM(salary) FROM emp WHERE dept = 2",
		"SELECT dept, COUNT(*) FROM emp WHERE id > 3 GROUP BY dept",
	} {
		direct, err := db.Query(q)
		if err != nil {
			t.Fatalf("direct %q: %v", q, err)
		}
		if direct.Counters.SeqIOs != 0 || direct.Counters.Comps == 0 {
			t.Errorf("%q: direct charge %+v, want comparisons and no page reads", q, direct.Counters)
		}
		res, err := cl.Query(q)
		if err != nil {
			t.Fatalf("wire %q: %v", q, err)
		}
		if !reflect.DeepEqual(res.Rows, direct.Values()) || res.Counters != direct.Counters {
			t.Errorf("wire %q: %v %+v, direct %v %+v", q, res.Rows, res.Counters, direct.Values(), direct.Counters)
		}
	}
}

// TestWireClassOptions checks WithClass/WithMinPages travel end to end:
// a statement run over the wire as Interactive with an explicit memory
// request bills exactly like a direct session opened with the same
// options.
func TestWireClassOptions(t *testing.T) {
	db, addr := startWireDB(t, mmdb.Options{MemoryPages: 64, MaxConcurrentQueries: 2})
	const q = "SELECT emp.name, dept.budget FROM emp JOIN dept ON emp.dept = dept.id ORDER BY emp.name"

	sess, err := db.NewSession(context.Background(), mmdb.WithClass(mmdb.Interactive), mmdb.WithMinPages(8))
	if err != nil {
		t.Fatal(err)
	}
	dres, err := sess.Query(q)
	sess.Close()
	if err != nil {
		t.Fatal(err)
	}

	cl, err := sqlclient.Dial(addr, sqlclient.WithClass(mmdb.Interactive), sqlclient.WithMinPages(8))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	wres, err := cl.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if wres.Counters != dres.Counters {
		t.Fatalf("wire counters %+v, direct %+v", wres.Counters, dres.Counters)
	}
	// Per-query override beats the connection default the same way.
	wres2, err := cl.QueryClass(q, mmdb.Batch, 8)
	if err != nil {
		t.Fatal(err)
	}
	if wres2.Counters != dres.Counters {
		t.Fatalf("override counters %+v, direct %+v", wres2.Counters, dres.Counters)
	}
}

// TestWireOverloadRoundTrip checks the typed-overload contract from
// ISSUE acceptance: when the scheduler sheds a wire statement, the
// client gets an error for which errors.Is(err, mmdb.ErrOverloaded)
// holds and errors.As recovers the *mmdb.OverloadError fields — and the
// connection survives to run the statement once load clears.
func TestWireOverloadRoundTrip(t *testing.T) {
	// One slot, no queue: any arrival while a session is held is shed.
	db, addr := startWireDB(t, mmdb.Options{MemoryPages: 32, MaxConcurrentQueries: 1, QueueDepth: -1})

	hold, err := db.NewSession(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	cl, err := sqlclient.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	_, err = cl.Query("SELECT id FROM emp")
	if err == nil {
		hold.Close()
		t.Fatal("expected overload, statement succeeded")
	}
	if !errors.Is(err, mmdb.ErrOverloaded) {
		hold.Close()
		t.Fatalf("errors.Is(err, ErrOverloaded) = false for %v", err)
	}
	var ov *mmdb.OverloadError
	if !errors.As(err, &ov) {
		hold.Close()
		t.Fatalf("errors.As *OverloadError failed for %v", err)
	}
	if ov.Class != mmdb.Batch {
		hold.Close()
		t.Fatalf("overload class %v, want Batch", ov.Class)
	}

	// The shed statement did not poison the connection.
	hold.Close()
	res, err := cl.Query("SELECT id FROM emp")
	if err != nil {
		t.Fatalf("after overload cleared: %v", err)
	}
	if len(res.Rows) != 8 {
		t.Fatalf("after overload cleared: %d rows", len(res.Rows))
	}
}

// TestWireStatementErrors checks server-side SQL failures surface as
// *sqlclient.ServerError with the WIRE.md code split and don't kill the
// connection.
func TestWireStatementErrors(t *testing.T) {
	_, addr := startWireDB(t, mmdb.Options{MemoryPages: 32})
	cl, err := sqlclient.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}

	_, err = cl.Query("SELECT FROM WHERE")
	var se *sqlclient.ServerError
	if !errors.As(err, &se) || se.Code != wire.CodeParse {
		t.Fatalf("parse failure: %v", err)
	}
	_, err = cl.Query("SELECT id FROM missing")
	if !errors.As(err, &se) || se.Code != wire.CodeSemantic {
		t.Fatalf("semantic failure: %v", err)
	}
	res, err := cl.Query("SELECT id FROM emp WHERE id = 1")
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("after failures: %v, %d rows", err, len(res.Rows))
	}
}

// TestWireReplReadPreference checks the v2 read-preference path end to
// end through sqlclient: the negotiated version is 2, a connection
// default of NearestReplica sends SELECTs to a replica, QueryPref
// overrides per statement, and the rows match the primary's answer.
func TestWireReplReadPreference(t *testing.T) {
	cluster, err := mmdb.OpenCluster(mmdb.Options{MemoryPages: 64, MaxConcurrentQueries: 4}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	emp, err := cluster.Primary().CreateRelation("emp", mmdb.MustSchema(
		mmdb.Field{Name: "id", Kind: mmdb.Int64},
		mmdb.Field{Name: "salary", Kind: mmdb.Int64},
	))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if err := emp.Insert(mmdb.IntValue(int64(i+1)), mmdb.IntValue(int64(100*(i+1)))); err != nil {
			t.Fatal(err)
		}
	}
	if err := emp.Flush(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := cluster.WaitCaughtUp(ctx); err != nil {
		t.Fatal(err)
	}

	srv := &wire.Server{Cluster: cluster, Name: "mmdb cluster"}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	t.Cleanup(func() { srv.Close() })

	direct, err := cluster.Primary().Query("SELECT id FROM emp WHERE salary >= 500 ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}

	cl, err := sqlclient.Dial(addr.String(), sqlclient.WithReadPreference(mmdb.NearestReplica()))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if cl.Version() != wire.Version {
		t.Fatalf("negotiated version %d, want %d", cl.Version(), wire.Version)
	}

	before := cluster.Metrics().ReplicaReads
	res, err := cl.Query("SELECT id FROM emp WHERE salary >= 500 ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Rows, direct.Values()) {
		t.Fatalf("replica rows diverge:\n wire   %v\n direct %v", res.Rows, direct.Values())
	}
	if got := cluster.Metrics().ReplicaReads; got <= before {
		t.Fatalf("nearest-replica SELECT did not read a replica (%d -> %d)", before, got)
	}

	// Per-statement override: pin one statement to the primary.
	beforePrimary := cluster.Metrics().PrimaryReads
	if _, err := cl.QueryPref("SELECT id FROM emp", mmdb.PrimaryOnly()); err != nil {
		t.Fatal(err)
	}
	if got := cluster.Metrics().PrimaryReads; got <= beforePrimary {
		t.Fatalf("PrimaryOnly override did not read the primary (%d -> %d)", beforePrimary, got)
	}

	// Bounded staleness with a huge bound is satisfiable by a replica.
	if _, err := cl.QueryPref("SELECT id FROM emp", mmdb.BoundedStaleness(1<<50)); err != nil {
		t.Fatal(err)
	}

	// Writes carry the preference but always land on the primary, and the
	// replicas converge on the result.
	if _, err := cl.Query("INSERT INTO emp (id, salary) VALUES (13, 1300)"); err != nil {
		t.Fatal(err)
	}
	if err := cluster.WaitCaughtUp(ctx); err != nil {
		t.Fatal(err)
	}
	if err := cluster.VerifyReplicas(); err != nil {
		t.Fatal(err)
	}
}
