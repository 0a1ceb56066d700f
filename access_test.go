package mmdb

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"
	"testing"
	"time"
)

// accessDB loads the index-path test relation: emp(id, dept, salary,
// name) with n rows in a shuffled id order, so storage order and key
// order differ. With indexed set it carries a B+-tree on id, a
// duplicate-key AVL index on dept and a B+-tree on name.
func accessDB(t *testing.T, opts Options, n int, indexed bool) *Database {
	t.Helper()
	db := MustOpen(opts)
	emp, err := db.CreateRelation("emp", empSchema())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		id := int64(i*7919) % int64(n) // a permutation of 0..n-1 for n coprime to 7919
		if err := emp.Insert(IntValue(id), IntValue(id%7), IntValue(1000+id%500),
			StringValue(fmt.Sprintf("emp%04d", id))); err != nil {
			t.Fatal(err)
		}
	}
	if err := emp.Flush(); err != nil {
		t.Fatal(err)
	}
	if indexed {
		for col, kind := range map[string]IndexKind{"id": BTree, "dept": AVL, "name": BTree} {
			if err := emp.CreateIndex(col, kind); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db
}

// multiset renders result rows order-insensitively.
func multiset(rows []Tuple) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = string(r)
	}
	sort.Strings(out)
	return out
}

func mustQuery(t *testing.T, db *Database, q string) *SQLResult {
	t.Helper()
	res, err := db.Query(q)
	if err != nil {
		t.Fatalf("Query(%q): %v", q, err)
	}
	return res
}

// accessGrid is the predicate grid: single-table WHEREs that may probe
// an index, and the OR/NOT/!= shapes that must keep the scan.
var accessGrid = []struct {
	where    string
	mustScan bool
}{
	{where: "id = 42"},
	{where: "id = 100000"},
	{where: "id < 10"},
	{where: "id <= 10"},
	{where: "id > 590"},
	{where: "id >= 590"},
	{where: "id >= 100 AND id < 200"},
	{where: "id > 100 AND id <= 200 AND id < 150"},
	{where: "id > 300 AND id < 300"},
	{where: "id >= 50 AND id <= 40"},
	{where: "id = 7 AND id = 8"},
	{where: "id < 0"},
	{where: "id >= 0"},
	{where: "id = 5 AND salary > 1200"},
	{where: "salary >= 1490 AND id < 300"},
	{where: "dept = 3"},
	{where: "dept >= 2 AND dept < 5"},
	{where: "dept > 5 AND salary < 1100"},
	{where: "name >= 'emp0100' AND name < 'emp0110'"},
	{where: "name = 'emp0042'"},
	{where: "id = 5 OR id = 6", mustScan: true},
	{where: "NOT (id < 100)", mustScan: true},
	{where: "id != 5", mustScan: true},
	{where: "salary > 1400", mustScan: true},
}

// TestAccessPathMatchesScan is the index-path oracle: every statement
// shape over every grid predicate returns the same row multiset with the
// indexes as a heap scan of the same data without them. Predicates that
// constrain no indexed range keep the scan exactly: identical counters,
// sequential IO included. Range-constrained ones probe (no page reads).
func TestAccessPathMatchesScan(t *testing.T) {
	const n = 600
	idx := accessDB(t, Options{PageSize: 512, MemoryPages: 32}, n, true)
	plain := accessDB(t, Options{PageSize: 512, MemoryPages: 32}, n, false)
	for _, g := range accessGrid {
		for _, form := range []string{
			"SELECT * FROM emp WHERE %s",
			"SELECT COUNT(*), SUM(salary), MIN(id), MAX(id) FROM emp WHERE %s",
			"SELECT dept, COUNT(*), SUM(salary) FROM emp WHERE %s GROUP BY dept",
			"SELECT dept FROM emp WHERE %s GROUP BY dept",
		} {
			q := fmt.Sprintf(form, g.where)
			got, want := mustQuery(t, idx, q), mustQuery(t, plain, q)
			if fmt.Sprint(multiset(got.Rows)) != fmt.Sprint(multiset(want.Rows)) {
				t.Errorf("%s: index path returned %d rows, scan %d (or different rows)", q, len(got.Rows), len(want.Rows))
			}
			switch {
			case g.mustScan && got.Counters != want.Counters:
				t.Errorf("%s: counters %v, scan %v", q, got.Counters, want.Counters)
			case !g.mustScan && got.Counters.SeqIOs != 0:
				t.Errorf("%s: probe charged %d sequential IOs", q, got.Counters.SeqIOs)
			}
		}
	}

	// int64 extremes, through the Pred API (SQL literals cannot spell
	// MinInt64): exclusive bounds past either end admit nothing and
	// inclusive ones everything.
	for _, c := range []struct {
		op   CompareOp
		v    int64
		want int
	}{
		{Lt, math.MinInt64, 0}, {Le, math.MinInt64, 0}, {Ge, math.MinInt64, n},
		{Gt, math.MaxInt64, 0}, {Ge, math.MaxInt64, 0}, {Le, math.MaxInt64, n},
	} {
		for _, db := range []*Database{idx, plain} {
			emp, _ := db.Relation("emp")
			got := 0
			if err := emp.Select(db.MustWhere("emp", "id", c.op, IntValue(c.v)), func(Tuple) bool { got++; return true }); err != nil {
				t.Fatal(err)
			}
			if got != c.want {
				t.Errorf("id %v %d: %d rows, want %d", c.op, c.v, got, c.want)
			}
		}
	}

	// Dropping the indexed table and reloading it unindexed returns the
	// scan, bit for bit.
	if err := idx.DropRelation("emp"); err != nil {
		t.Fatal(err)
	}
	reloaded := accessDB(t, Options{PageSize: 512, MemoryPages: 32}, n, false)
	for _, g := range accessGrid {
		q := "SELECT * FROM emp WHERE " + g.where
		got, want := mustQuery(t, reloaded, q), mustQuery(t, plain, q)
		if fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) || got.Counters != want.Counters {
			t.Errorf("%s: unindexed table differs from the scan", q)
		}
	}
}

// TestAccessPathPointProbeCharge: a point SELECT on an indexed key reads
// no pages and charges at most 2⌈log₂N⌉+2 comparisons, while LIMIT stops
// an index walk early and rows come in key order.
func TestAccessPathPointProbeCharge(t *testing.T) {
	const n = 600
	db := accessDB(t, Options{PageSize: 512, MemoryPages: 32}, n, true)
	bound := int64(2*bits.Len(uint(n-1)) + 2)
	for _, q := range []string{"SELECT * FROM emp WHERE id = 321", "SELECT name FROM emp WHERE id = 0"} {
		res := mustQuery(t, db, q)
		if len(res.Rows) != 1 {
			t.Fatalf("%s: %d rows", q, len(res.Rows))
		}
		if c := res.Counters; c.SeqIOs != 0 || c.RandIOs != 0 || c.Comps > bound || c.Comps <= 0 {
			t.Errorf("%s: charged %v, want 0 IO and 1..%d comparisons", q, c, bound)
		}
	}
	emp, _ := db.Relation("emp")
	db.ResetClock()
	if rows, err := emp.Lookup("id", IntValue(321)); err != nil || len(rows) != 1 {
		t.Fatalf("lookup: %d rows, %v", len(rows), err)
	}
	if c := db.Counters(); c.SeqIOs != 0 || c.Comps > bound {
		t.Errorf("Lookup charged %v", c)
	}

	res := mustQuery(t, db, "SELECT id FROM emp WHERE id >= 100 LIMIT 5")
	vals := res.Values()
	if len(vals) != 5 || vals[0][0].I != 100 || vals[4][0].I != 104 {
		t.Fatalf("index walk LIMIT prefix %v, want ids 100..104", vals)
	}
}

// TestAccessPathCostPicksScan: the choice is the §2 cost model under the
// database's own Params. With sequential IO nearly free and a histogram
// saying a predicate keeps every row, the scan (1 comparison a row) beats
// the index walk (2 a row plus the descent); under the Table 2 defaults
// the same statement probes.
func TestAccessPathCostPicksScan(t *testing.T) {
	const n = 600
	cheapIO := DefaultParams()
	cheapIO.IOSeq = time.Nanosecond
	const q = "SELECT * FROM emp WHERE id >= 0"
	for _, c := range []struct {
		params Params
		scan   bool
	}{{cheapIO, true}, {DefaultParams(), false}} {
		db := accessDB(t, Options{PageSize: 512, MemoryPages: 32, Params: c.params}, n, true)
		if err := db.BuildHistogram("emp", "id", 16); err != nil {
			t.Fatal(err)
		}
		res := mustQuery(t, db, q)
		if len(res.Rows) != n {
			t.Fatalf("%d rows, want %d", len(res.Rows), n)
		}
		if scanned := res.Counters.SeqIOs > 0; scanned != c.scan {
			t.Errorf("IOSeq=%v: scanned=%v (%v), want %v", c.params.IOSeq, scanned, res.Counters, c.scan)
		}
		if c.scan && res.Counters.Comps != n {
			t.Errorf("scan charged %d comparisons, want %d", res.Counters.Comps, n)
		}
	}
}

// accessStatements are the counter-identity statements: probes, walks,
// residuals and the scan shapes.
var accessStatements = []string{
	"SELECT * FROM emp WHERE id = 77",
	"SELECT id, salary FROM emp WHERE id >= 120 AND id < 180",
	"SELECT * FROM emp WHERE dept = 4 AND salary > 1200",
	"SELECT COUNT(*), SUM(salary) FROM emp WHERE id < 250",
	"SELECT dept, COUNT(*) FROM emp WHERE id > 400 GROUP BY dept",
	"SELECT dept FROM emp WHERE name >= 'emp0300' GROUP BY dept",
	"SELECT * FROM emp WHERE id = 3 OR dept = 2",
}

func statementBills(t *testing.T, db *Database) []string {
	t.Helper()
	var out []string
	for _, q := range accessStatements {
		res := mustQuery(t, db, q)
		out = append(out, fmt.Sprintf("%s => %d rows %x %v", q, len(res.Rows), multiset(res.Rows), res.Counters))
	}
	return out
}

// TestAccessPathCountersIdentical: an access path's charge is a pure
// function of the statement and the index contents — identical across
// runs, fresh databases and operator parallelism widths.
func TestAccessPathCountersIdentical(t *testing.T) {
	const n = 600
	var base []string
	for _, width := range []int{1, 4} {
		for run := 0; run < 2; run++ {
			db := accessDB(t, Options{PageSize: 512, MemoryPages: 32, Parallelism: width}, n, true)
			got := statementBills(t, db)
			if again := statementBills(t, db); fmt.Sprint(again) != fmt.Sprint(got) {
				t.Fatalf("width %d: rerun on the same database drifted", width)
			}
			if base == nil {
				base = got
				continue
			}
			for i := range got {
				if got[i] != base[i] {
					t.Errorf("width %d run %d:\n got  %s\n want %s", width, run, got[i], base[i])
				}
			}
		}
	}
}

// TestAccessPathReplicaMatchesPrimary: a replica replays the primary's
// index upkeep and a node rebuilt by Rejoin copies the indexes as they
// stand, so after DELETEs and Updates index reads routed to either return
// the primary's rows, in its order, and bill exactly what it bills. An
// Update that moves a row to another dept appends it to that AVL key's
// list; a tree rebuilt in heap order would list it first.
func TestAccessPathReplicaMatchesPrimary(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	c, err := OpenCluster(Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	seedCluster(t, c)
	if rel, err := c.Primary().Relation("accounts"); err != nil {
		t.Fatal(err)
	} else if err := rel.CreateIndex("dept", AVL); err != nil {
		t.Fatal(err)
	}
	queries := []string{
		"SELECT * FROM accounts WHERE id = 42",
		"SELECT id FROM accounts WHERE id >= 100 AND id < 150 AND balance > 1110",
		"SELECT COUNT(*), SUM(balance) FROM accounts WHERE dept = 3",
		"SELECT dept, COUNT(*) FROM accounts WHERE id > 150 GROUP BY dept",
		"SELECT id, balance FROM accounts WHERE dept = 2",
	}
	mutate := func(lo, a int64) { // a: an id in dept 1
		t.Helper()
		if _, err := c.Query(fmt.Sprintf("DELETE FROM accounts WHERE id >= %d AND id < %d", lo, lo+20)); err != nil {
			t.Fatal(err)
		}
		rel, err := c.Primary().Relation("accounts")
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range []struct {
			col    string
			v      int64
			setCol string
			newV   int64
		}{
			{"id", a, "dept", 2},           // AVL key changes: removed, reinserted
			{"id", a + 1, "balance", 7777}, // no key changes: replaced in place
			{"id", a + 2, "id", 1000 + lo}, // B+-tree key changes
		} {
			if n, err := rel.Update(u.col, IntValue(u.v), u.setCol, IntValue(u.newV)); err != nil || n != 1 {
				t.Fatalf("update %v: %d rows, %v", u, n, err)
			}
		}
	}
	compare := func(stage string) {
		t.Helper()
		waitCaughtUp(t, c)
		if err := c.VerifyReplicas(); err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		before := c.Metrics().ReplicaReads
		for _, q := range queries {
			prim, err := c.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := c.Query(q, WithReadPreference(NearestReplica()))
			if err != nil {
				t.Fatal(err)
			}
			if prim.Counters.SeqIOs != 0 {
				t.Errorf("%s: %s scanned on the primary: %v", stage, q, prim.Counters)
			}
			if fmt.Sprint(rep.Rows) != fmt.Sprint(prim.Rows) || rep.Counters != prim.Counters {
				t.Errorf("%s: %s: replica %d rows %v, primary %d rows %v",
					stage, q, len(rep.Rows), rep.Counters, len(prim.Rows), prim.Counters)
			}
		}
		if got := c.Metrics().ReplicaReads - before; got != uint64(len(queries)) {
			t.Fatalf("%s: %d of %d reads reached the replica", stage, got, len(queries))
		}
	}
	mutate(60, 8)
	compare("replica")
	if _, err := c.Failover(ctx); err != nil {
		t.Fatal(err)
	}
	if err := c.Rejoin(ctx); err != nil {
		t.Fatal(err)
	}
	mutate(120, 15)
	compare("after rejoin")
}

// TestIndexLookupConcurrentRace: Lookups under shared intents run
// concurrently on one index; each call counts its own comparisons, so
// under -race two readers must not touch a shared plain counter.
func TestIndexLookupConcurrentRace(t *testing.T) {
	for _, kind := range []IndexKind{BTree, AVL} {
		db := openTestDB(t)
		emp, _ := loadCompany(t, db, 500, 5)
		if err := emp.CreateIndex("id", kind); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 2000; i++ {
					id := int64((i*13 + g) % 500)
					rows, err := emp.Lookup("id", IntValue(id))
					if err != nil || len(rows) != 1 || emp.Schema().Int(rows[0], 0) != id {
						t.Errorf("%v lookup %d: %d rows, %v", kind, id, len(rows), err)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}
