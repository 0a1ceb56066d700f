package mmdb

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
)

// pushdownDB loads emp(id, dept, salary, name) as accessDB does (n rows,
// shuffled ids, dept = id%7, salary = 1000 + id%500) plus proj(emp, hours)
// with m rows referencing emp ids, some more than once and some not at
// all, on 512-byte pages.
func pushdownDB(t *testing.T, opts Options, n, m int) *Database {
	t.Helper()
	opts.PageSize = 512
	db := accessDB(t, opts, n, false)
	proj, err := db.CreateRelation("proj", MustSchema(Field{Name: "emp", Kind: Int64}, Field{Name: "hours", Kind: Int64}))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range projRows(n, m) {
		if err := proj.Insert(IntValue(r[0]), IntValue(r[1])); err != nil {
			t.Fatal(err)
		}
	}
	if err := proj.Flush(); err != nil {
		t.Fatal(err)
	}
	return db
}

// empRows and projRows are the oracle's copy of pushdownDB's contents,
// in storage order: emp rows as (id, dept, salary), proj rows as
// (emp, hours).
func empRows(n int) [][]int64 {
	out := make([][]int64, n)
	for i := range out {
		id := int64(i*7919) % int64(n)
		out[i] = []int64{id, id % 7, 1000 + id%500}
	}
	return out
}

func projRows(n, m int) [][]int64 {
	out := make([][]int64, m)
	for i := range out {
		out[i] = []int64{int64(i*37) % int64(n+n/4), int64(i % 50)}
	}
	return out
}

// TestPushdownOrderByCounters pins the filtered top-k plan: the WHERE
// runs first as exactly one charged scan (pages sequential IOs plus
// rows×leaves comparisons), and the §3.4 sort then runs in memory over
// the qualifying rows only — the same charges as sorting a relation that
// holds just those rows, with no IO and no spilled runs. With a B+-tree
// on the filtered column the read is an index probe and the statement
// charges no IO at all. Counters are the same at every width.
func TestPushdownOrderByCounters(t *testing.T) {
	const n = 3000
	const where = "dept = 3"
	const topk = "SELECT * FROM emp WHERE " + where + " ORDER BY salary DESC LIMIT 10"
	var perWidth []Counters
	for _, p := range []int{1, 4} {
		// A 100-page grant holds the ~430 qualifying rows, not all of emp.
		db := pushdownDB(t, Options{MemoryPages: 200, MaxConcurrentQueries: 2, Parallelism: p}, n, 0)
		emp, err := db.Relation("emp")
		if err != nil {
			t.Fatal(err)
		}
		pages := int64(emp.NumPages())

		scan := mustQuery(t, db, "SELECT * FROM emp WHERE "+where)
		if want := (Counters{SeqIOs: pages, Comps: n}); scan.Counters != want {
			t.Fatalf("P=%d: filtered scan charged %+v, want %+v", p, scan.Counters, want)
		}
		// sel holds the qualifying rows in storage order: sorting it is
		// the sort the filtered statement runs on its private input.
		sel, err := db.CreateRelation("sel", emp.Schema())
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range scan.Rows {
			if err := sel.InsertTuple(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := sel.Flush(); err != nil {
			t.Fatal(err)
		}
		sorted := mustQuery(t, db, "SELECT * FROM sel ORDER BY salary DESC LIMIT 10")

		before := db.SessionMetrics()
		got := mustQuery(t, db, topk)
		after := db.SessionMetrics()
		want := scan.Counters
		want.Add(sorted.Counters)
		if got.Counters != want {
			t.Errorf("P=%d: top-k charged %+v, want scan %+v + in-memory sort %+v", p, got.Counters, scan.Counters, sorted.Counters)
		}
		if sorted.Counters.SeqIOs != 0 || sorted.Counters.RandIOs != 0 || sorted.Counters.Comps == 0 {
			t.Errorf("P=%d: sort of %d qualifying rows charged %+v, want comparisons and no IO", p, len(scan.Rows), sorted.Counters)
		}
		if in, passes := after.SortsInMemory-before.SortsInMemory, after.SortMergePasses-before.SortMergePasses; in != 1 || passes != 0 {
			t.Errorf("P=%d: top-k ran %d in-memory sorts and %d merge passes, want 1 and 0", p, in, passes)
		}
		if fmt.Sprint(got.Rows) != fmt.Sprint(sorted.Rows) {
			t.Errorf("P=%d: top-k rows differ from sorting the qualifying rows", p)
		}
		perWidth = append(perWidth, got.Counters)

		if err := emp.CreateIndex("dept", BTree); err != nil {
			t.Fatal(err)
		}
		probe := mustQuery(t, db, topk)
		if probe.Counters.SeqIOs != 0 || probe.Counters.RandIOs != 0 {
			t.Errorf("P=%d: top-k over a B+-tree on dept charged %d+%d IOs, want 0", p, probe.Counters.SeqIOs, probe.Counters.RandIOs)
		}
		if fmt.Sprint(probe.Rows) != fmt.Sprint(got.Rows) {
			t.Errorf("P=%d: index-probed top-k returned other rows than the scan", p)
		}
	}
	if perWidth[0] != perWidth[1] {
		t.Errorf("top-k counters differ across widths: P=1 %+v, P=4 %+v", perWidth[0], perWidth[1])
	}
}

// TestPushdownJoinCounters pins the filtered join plan: the larger side's
// selective WHERE runs before the join, so the filtered side is the
// smaller file and becomes the build side, and the hash join charges one
// hash per qualifying build row plus one per probe row: |σR| + |S|.
func TestPushdownJoinCounters(t *testing.T) {
	const n, m, window = 3000, 1000, 200
	q := fmt.Sprintf("SELECT emp.id, proj.hours FROM emp JOIN proj ON emp.id = proj.emp WHERE emp.id < %d", window)
	var perWidth []Counters
	for _, p := range []int{1, 4} {
		db := pushdownDB(t, Options{MemoryPages: 200, MaxConcurrentQueries: 2, Parallelism: p}, n, m)
		res := mustQuery(t, db, q)
		if res.Counters.Hashes != window+m {
			t.Errorf("P=%d: join charged %d hashes, want |σemp| + |proj| = %d", p, res.Counters.Hashes, window+m)
		}
		if res.Counters.RandIOs != 0 {
			t.Errorf("P=%d: resident join charged %d random IOs", p, res.Counters.RandIOs)
		}
		perWidth = append(perWidth, res.Counters)
	}
	if perWidth[0] != perWidth[1] {
		t.Errorf("join counters differ across widths: P=1 %+v, P=4 %+v", perWidth[0], perWidth[1])
	}
}

// opred is a random predicate the oracle can both render as SQL and
// evaluate in Go, over the columns (id, dept, salary) or (emp, hours).
type opred struct {
	op   string // a comparison operator, or AND, OR, NOT
	col  int
	val  int64
	l, r *opred
}

func (p *opred) sql(cols []string) string {
	switch p.op {
	case "AND", "OR":
		return "(" + p.l.sql(cols) + " " + p.op + " " + p.r.sql(cols) + ")"
	case "NOT":
		return "NOT " + p.l.sql(cols)
	}
	return fmt.Sprintf("%s %s %d", cols[p.col], p.op, p.val)
}

func (p *opred) eval(row []int64) bool {
	v := row[p.col]
	switch p.op {
	case "AND":
		return p.l.eval(row) && p.r.eval(row)
	case "OR":
		return p.l.eval(row) || p.r.eval(row)
	case "NOT":
		return !p.l.eval(row)
	case "=":
		return v == p.val
	case "!=":
		return v != p.val
	case "<":
		return v < p.val
	case "<=":
		return v <= p.val
	case ">":
		return v > p.val
	default:
		return v >= p.val
	}
}

// randPred draws a predicate tree of at most depth levels; domain[c]
// bounds column c's values so comparisons select something.
func randPred(rng *rand.Rand, depth int, domain []int64) *opred {
	if depth > 0 && rng.Intn(3) > 0 {
		switch rng.Intn(3) {
		case 0:
			return &opred{op: "AND", l: randPred(rng, depth-1, domain), r: randPred(rng, depth-1, domain)}
		case 1:
			return &opred{op: "OR", l: randPred(rng, depth-1, domain), r: randPred(rng, depth-1, domain)}
		default:
			return &opred{op: "NOT", l: randPred(rng, depth-1, domain)}
		}
	}
	c := rng.Intn(len(domain))
	ops := []string{"=", "!=", "<", "<=", ">", ">="}
	return &opred{op: ops[rng.Intn(len(ops))], col: c, val: rng.Int63n(domain[c] + 2)}
}

// intsOf decodes SQLResult rows of int64 columns.
func intsOf(res *SQLResult) [][]int64 {
	out := make([][]int64, len(res.Rows))
	for i, v := range res.Values() {
		out[i] = make([]int64, len(v))
		for j := range v {
			out[i][j] = v[j].I
		}
	}
	return out
}

func sortedRows(rows [][]int64) string {
	s := make([]string, len(rows))
	for i, r := range rows {
		s[i] = fmt.Sprint(r)
	}
	sort.Strings(s)
	return strings.Join(s, ";")
}

// TestPushdownMatchesOracle checks filtered ORDER BY and filtered joins
// against a brute-force oracle — filter, stable sort, trim; a nested-loop
// join — over random AND/OR/NOT/!= predicates plus the empty and the
// everything predicate, ASC and DESC, LIMIT 0 and LIMIT past the end,
// with and without indexes on the filtered columns, at widths 1 and 4.
// The 16-page grant holds 160 rows, so larger filtered inputs take the
// external sort's spill path. Equal sort keys may come in any order, but
// the same order on every run: a repeated statement returns identical
// bytes and counters.
func TestPushdownMatchesOracle(t *testing.T) {
	const n, m = 600, 300
	emp, proj := empRows(n), projRows(n, m)
	rng := rand.New(rand.NewSource(1))
	empCols, projCols := []string{"id", "dept", "salary"}, []string{"emp", "hours"}
	preds := []*opred{
		{op: "<", col: 0, val: 0},  // selects nothing
		{op: ">=", col: 0, val: 0}, // selects everything
	}
	projPreds := []*opred{{op: ">=", col: 1, val: 0}, {op: "<", col: 1, val: 25}}
	for len(preds) < 20 {
		preds = append(preds, randPred(rng, 2, []int64{n, 7, 1500}))
		projPreds = append(projPreds, randPred(rng, 2, []int64{n + n/4, 50}))
	}
	orders := []struct {
		col  int
		name string
	}{{0, "id"}, {2, "salary"}}
	limits := []int{-1, 0, 7, n + 10}

	for _, p := range []int{1, 4} {
		for _, indexed := range []bool{false, true} {
			db := pushdownDB(t, Options{MemoryPages: 32, MaxConcurrentQueries: 2, Parallelism: p}, n, m)
			if indexed {
				rel, _ := db.Relation("emp")
				pr, _ := db.Relation("proj")
				for _, ix := range []struct {
					r   *Relation
					col string
					k   IndexKind
				}{{rel, "id", BTree}, {rel, "dept", AVL}, {rel, "salary", BTree}, {pr, "emp", BTree}} {
					if err := ix.r.CreateIndex(ix.col, ix.k); err != nil {
						t.Fatal(err)
					}
				}
			}
			name := fmt.Sprintf("P=%d/indexed=%v", p, indexed)
			for pi, pred := range preds {
				var want [][]int64
				for _, r := range emp {
					if pred.eval(r) {
						want = append(want, r)
					}
				}
				for _, o := range orders {
					for _, desc := range []bool{false, true} {
						for _, limit := range limits {
							q := "SELECT id, dept, salary FROM emp WHERE " + pred.sql(empCols) + " ORDER BY " + o.name
							exp := slices.Clone(want)
							sort.SliceStable(exp, func(i, j int) bool {
								if desc {
									return exp[i][o.col] > exp[j][o.col]
								}
								return exp[i][o.col] < exp[j][o.col]
							})
							if desc {
								q += " DESC"
							}
							if limit >= 0 {
								q += fmt.Sprintf(" LIMIT %d", limit)
								if limit < len(exp) {
									exp = exp[:limit]
								}
							}
							res := mustQuery(t, db, q)
							checkOrdered(t, name+": "+q, intsOf(res), exp, o.col, len(exp) == len(want) || o.name == "id")
							if o.name == "salary" {
								again := mustQuery(t, db, q)
								if fmt.Sprint(again.Rows) != fmt.Sprint(res.Rows) || again.Counters != res.Counters {
									t.Fatalf("%s: %s: a repeat returned other rows or counters", name, q)
								}
							}
						}
					}
				}

				// Join with both sides filtered.
				pq := projPreds[pi]
				var jwant [][]int64
				for _, e := range emp {
					if !pred.eval(e) {
						continue
					}
					for _, r := range proj {
						if r[0] == e[0] && pq.eval(r) {
							jwant = append(jwant, []int64{e[0], e[2], r[1]})
						}
					}
				}
				q := "SELECT emp.id, emp.salary, proj.hours FROM emp JOIN proj ON emp.id = proj.emp WHERE " +
					pred.sql(prefixed("emp", empCols)) + " AND " + pq.sql(prefixed("proj", projCols))
				res := mustQuery(t, db, q)
				if got := intsOf(res); sortedRows(got) != sortedRows(jwant) {
					t.Fatalf("%s: %s: %d rows, oracle %d (or other rows)", name, q, len(got), len(jwant))
				}
			}
			if m := db.SessionMetrics(); m.SortsInMemory == m.Sorts {
				t.Errorf("%s: none of %d sorts spilled runs", name, m.Sorts)
			}
		}
	}
}

func prefixed(table string, cols []string) []string {
	out := make([]string, len(cols))
	for i, c := range cols {
		out[i] = table + "." + c
	}
	return out
}

// checkOrdered compares a sorted result with the oracle's: the same sort
// key sequence, every row a real qualifying row with no row twice, and —
// when the keys are unique or nothing was trimmed — the same rows.
func checkOrdered(t *testing.T, what string, got, want [][]int64, col int, sameRows bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, oracle %d", what, len(got), len(want))
	}
	seen := make(map[int64]bool, len(got))
	for i, r := range got {
		if r[col] != want[i][col] {
			t.Fatalf("%s: row %d key %d, oracle %d", what, i, r[col], want[i][col])
		}
		id := r[0]
		if seen[id] || r[1] != id%7 || r[2] != 1000+id%500 {
			t.Fatalf("%s: row %d = %v is repeated or not a row of emp", what, i, r)
		}
		seen[id] = true
	}
	if sameRows && sortedRows(got) != sortedRows(want) {
		t.Fatalf("%s: rows differ from the oracle's", what)
	}
}

// TestPushdownReleasesLockState: a planned 3-table join registers and
// drops its output relation and a filtered statement creates a private
// input, yet once their sessions close the lock table is back to its
// size before them, however often they run.
func TestPushdownReleasesLockState(t *testing.T) {
	db := newSQLTestDB(t, Options{})
	stmts := []string{
		"SELECT emp.id, proj.id, budget FROM emp JOIN dept ON emp.dept = dept.id JOIN proj ON proj.dept = dept.id",
		"SELECT * FROM emp WHERE dept = 2 ORDER BY salary DESC LIMIT 2",
		"SELECT emp.id, budget FROM emp JOIN dept ON emp.dept = dept.id WHERE salary < 46000",
	}
	for _, q := range stmts {
		mustQuery(t, db, q)
	}
	size := db.locks.Len()
	for i := 0; i < 20; i++ {
		for _, q := range stmts {
			mustQuery(t, db, q)
		}
	}
	if got := db.locks.Len(); got != size {
		t.Fatalf("lock table holds %d states after 20 rounds, %d after the first", got, size)
	}
	if size != 0 {
		t.Fatalf("lock table holds %d states with no session open", size)
	}
}
