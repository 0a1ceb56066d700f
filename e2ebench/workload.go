package main

import (
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"slices"
	"strconv"
	"strings"
	"sync"

	"mmdb"
)

// spec is one workload's configuration: the database it opens, the data
// it loads and the statement mix each connection draws from.
type spec struct {
	Name        string `json:"name"`
	EmpRows     int    `json:"emp_rows"`
	DeptRows    int    `json:"dept_rows"`
	ProjRows    int    `json:"proj_rows"`
	IndexID     bool   `json:"btree_on_emp_id"`
	Replicas    int    `json:"replicas"` // > 0 opens a cluster front door
	MemoryPages int    `json:"memory_pages"`
	Slots       int    `json:"slots"`
	Conns       int    `json:"connections"`
	Setups      int    `json:"setups"` // set-ups timed per run for setup_s

	Mix        []weighted `json:"mix"`
	RangeWidth int        `json:"range_width"` // oltp range SELECT ids
	Window     int        `json:"join_window"` // analytic join ids
	Params     int        `json:"param_set"`   // analytic distinct parameters per kind
	TopK       int        `json:"top_k"`
	BatchRows  int        `json:"insert_batch_rows"` // ingest rows per INSERT
}

type weighted struct {
	Kind   string `json:"kind"`
	Weight int    `json:"weight"`
}

// Statement kinds. Each has its own oracle and its own row in the traced
// run's self-time table.
const (
	kPoint   = "point"
	kRange   = "range"
	kInsert  = "insert"
	kDelete  = "delete"
	kJoin    = "join"
	kGroupBy = "groupby"
	kTopK    = "topk"
)

func isWrite(kind string) bool { return kind == kInsert || kind == kDelete }

var specs = map[string]spec{
	"oltp": {
		Name: "oltp", EmpRows: 100_000, DeptRows: 1_000, IndexID: true,
		MemoryPages: 1000, Slots: 2, Conns: 2, Setups: 5,
		Mix:        []weighted{{kPoint, 80}, {kRange, 10}, {kInsert, 9}, {kDelete, 1}},
		RangeWidth: 100,
	},
	"analytic": {
		Name: "analytic", EmpRows: 100_000, ProjRows: 80_000,
		MemoryPages: 400, Slots: 2, Conns: 2, Setups: 5,
		Mix:    []weighted{{kJoin, 35}, {kGroupBy, 35}, {kTopK, 30}},
		Window: 2_000, Params: 8, TopK: 10,
	},
	"ingest": {
		Name: "ingest", EmpRows: 1_000, IndexID: true, Replicas: 1,
		MemoryPages: 1000, Slots: 2, Conns: 2, Setups: 15,
		Mix:       []weighted{{kInsert, 100}},
		BatchRows: 100,
	},
}

// scaled shrinks a workload's data for the smoke test, keeping its shape.
func (s spec) scaled(div int) spec {
	if div <= 1 {
		return s
	}
	s.EmpRows = max(s.EmpRows/div, 100)
	if s.DeptRows > 0 {
		s.DeptRows = max(s.DeptRows/div, 10)
	}
	if s.ProjRows > 0 {
		s.ProjRows = max(s.ProjRows/div, 80)
	}
	if s.Window > 0 {
		s.Window = max(s.Window/div, 20)
	}
	if s.RangeWidth > 0 {
		s.RangeWidth = max(s.RangeWidth/div, 10)
	}
	if s.BatchRows > 0 {
		s.BatchRows = max(s.BatchRows/div, 5)
	}
	s.Setups = 1
	return s
}

// dataset is the seeded content of the base relations. Row i of emp has
// id i; the arrays are the oracles' ground truth.
type dataset struct {
	deptOf    []int64 // emp.dept by id
	salary    []int64 // emp.salary by id
	depts     int     // emp.dept ranges over [0, depts)
	budget    []int64 // dept.budget by id
	projEmp   []int64
	projHours []int64
}

const salaryBase, salarySpan = 30_000, 100_000

func generate(s spec, seed uint64) *dataset {
	rng := rand.New(rand.NewPCG(seed, 0xe2e))
	d := &dataset{depts: 1000}
	if s.DeptRows > 0 {
		d.depts = s.DeptRows
	}
	d.deptOf = make([]int64, s.EmpRows)
	d.salary = make([]int64, s.EmpRows)
	for i := range d.deptOf {
		d.deptOf[i] = rng.Int64N(int64(d.depts))
		d.salary[i] = salaryBase + rng.Int64N(salarySpan)
	}
	d.budget = make([]int64, s.DeptRows)
	for i := range d.budget {
		d.budget[i] = 1_000_000 + rng.Int64N(9_000_000)
	}
	// proj holds one row for each of ProjRows employees spread evenly over
	// emp, in seeded order: the join's key set, and so its hash partition
	// sizes, are the same for every seed.
	d.projEmp = make([]int64, s.ProjRows)
	d.projHours = make([]int64, s.ProjRows)
	for i := range d.projEmp {
		d.projEmp[i] = int64(i) * int64(s.EmpRows) / int64(s.ProjRows)
		d.projHours[i] = 1 + rng.Int64N(200)
	}
	rng.Shuffle(len(d.projEmp), func(i, j int) { d.projEmp[i], d.projEmp[j] = d.projEmp[j], d.projEmp[i] })
	return d
}

// answer is a statement's outcome as the application sees it, whichever
// path (TCP or in-process) produced it.
type answer struct {
	rows     [][]int64
	affected int64
	counters mmdb.Counters
}

func intRows(vals [][]mmdb.Value) [][]int64 {
	out := make([][]int64, len(vals))
	for i, r := range vals {
		out[i] = make([]int64, len(r))
		for j, v := range r {
			out[i][j] = v.I
		}
	}
	return out
}

// stmt is one generated statement with its oracle.
type stmt struct {
	kind  string
	text  string
	check func(a answer) error
}

// ledger is the run-wide write accounting the end-of-run oracles check,
// and the per-text virtual counter record of the analytic oracle.
type ledger struct {
	mu       sync.Mutex
	inserted int64 // rows acknowledged by INSERTs
	deleted  int64 // rows reported by DELETEs
	bills    map[string]mmdb.Counters
}

func newLedger() *ledger { return &ledger{bills: map[string]mmdb.Counters{}} }

func (l *ledger) add(ins, del int64) {
	l.mu.Lock()
	l.inserted += ins
	l.deleted += del
	l.mu.Unlock()
}

// sameBill checks that every execution of one statement text bills the
// counters of its first execution (static grants, docs/SQL.md §5).
func (l *ledger) sameBill(text string, c mmdb.Counters) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	first, ok := l.bills[text]
	if !ok {
		l.bills[text] = c
		return nil
	}
	if first != c {
		return fmt.Errorf("counters %v differ from first execution's %v", c, first)
	}
	return nil
}

// workload couples a spec with its data and the references its
// statements are checked against. Streams drawn from it are pure
// functions of (seed, connection).
type workload struct {
	spec
	seed   uint64
	data   *dataset
	ledger *ledger

	joinRef  map[int64]joinRef // window start -> reference
	groupRef map[int64][][]int64
	topRef   map[int64][]int64 // dept -> top salaries, descending
	windows  []int64
	floors   []int64
	topDepts []int64
}

type joinRef struct {
	rows int
	hash uint64
}

func newWorkload(s spec, seed uint64) *workload {
	w := &workload{spec: s, seed: seed, data: generate(s, seed), ledger: newLedger()}
	if s.ProjRows > 0 {
		w.buildAnalyticRefs()
	}
	return w
}

// buildAnalyticRefs draws the small fixed parameter set of the analytic
// statements and computes each reference answer from the arrays.
func (w *workload) buildAnalyticRefs() {
	rng := rand.New(rand.NewPCG(w.seed, 0xa11))
	d := w.data
	n := int64(w.EmpRows)
	w.joinRef = map[int64]joinRef{}
	w.groupRef = map[int64][][]int64{}
	w.topRef = map[int64][]int64{}
	for i := 0; i < w.Params; i++ {
		lo := rng.Int64N(n - int64(w.Window) + 1)
		w.windows = append(w.windows, lo)
		ref := joinRef{}
		for p, e := range d.projEmp {
			if e >= lo && e < lo+int64(w.Window) {
				ref.rows++
				ref.hash += rowHash([]int64{e, d.salary[e], d.projHours[p]})
			}
		}
		w.joinRef[lo] = ref

		// Floors keep 45-55% of the rows, so every parameter set
		// aggregates a similar share of emp.
		floor := salaryBase + salarySpan*45/100 + rng.Int64N(salarySpan/10)
		w.floors = append(w.floors, floor)
		cnt := make([]int64, d.depts)
		sum := make([]int64, d.depts)
		for id, s := range d.salary {
			if s >= floor {
				cnt[d.deptOf[id]]++
				sum[d.deptOf[id]] += s
			}
		}
		var groups [][]int64
		for dept := range cnt {
			if cnt[dept] > 0 {
				groups = append(groups, []int64{int64(dept), cnt[dept], sum[dept]})
			}
		}
		w.groupRef[floor] = groups

		dept := rng.Int64N(int64(d.depts))
		w.topDepts = append(w.topDepts, dept)
		var sal []int64
		for id, s := range d.salary {
			if d.deptOf[id] == dept {
				sal = append(sal, s)
			}
		}
		slices.Sort(sal)
		slices.Reverse(sal)
		w.topRef[dept] = sal[:min(len(sal), w.TopK)]
	}
}

// rowHash is an order-independent row fingerprint: results are compared
// as multisets by summing it.
func rowHash(row []int64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range row {
		for i := range b {
			b[i] = byte(uint64(v) >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// stream returns connection conn's statement generator. Two calls with
// the same arguments yield the same statements in the same order, so the
// traced run replays exactly what the TCP run sent. Kinds are dealt from
// a shuffled deck holding the mix's exact proportions, so every run
// executes the same mix whatever its length.
func (w *workload) stream(conn int) func() stmt {
	rng := rand.New(rand.NewPCG(w.seed, uint64(conn)+1))
	g := 0
	for _, m := range w.Mix {
		g = gcd(g, m.Weight)
	}
	var deck []string
	for _, m := range w.Mix {
		for i := 0; i < m.Weight/g; i++ {
			deck = append(deck, m.Kind)
		}
	}
	dealt := len(deck)
	fresh := int64(0) // per-connection count of fresh ids handed out
	nextID := func() int64 {
		id := int64(w.EmpRows) + fresh*int64(w.Conns) + int64(conn)
		fresh++
		return id
	}
	return func() stmt {
		if dealt == len(deck) {
			rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
			dealt = 0
		}
		kind := deck[dealt]
		dealt++
		switch kind {
		case kPoint:
			return w.point(rng.Int64N(int64(w.EmpRows)))
		case kRange:
			return w.rangeSel(rng.Int64N(int64(w.EmpRows - w.RangeWidth + 1)))
		case kInsert:
			rows := max(w.BatchRows, 1)
			vals := make([][3]int64, rows)
			for i := range vals {
				vals[i] = [3]int64{nextID(), rng.Int64N(int64(w.data.depts)), salaryBase + rng.Int64N(salarySpan)}
			}
			return w.insert(vals)
		case kDelete:
			return w.deleteFresh()
		case kJoin:
			return w.join(w.windows[rng.IntN(len(w.windows))])
		case kGroupBy:
			return w.groupBy(w.floors[rng.IntN(len(w.floors))])
		default:
			return w.topK(w.topDepts[rng.IntN(len(w.topDepts))])
		}
	}
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func (w *workload) empRow(id int64) []int64 {
	return []int64{id, w.data.deptOf[id], w.data.salary[id]}
}

func (w *workload) point(id int64) stmt {
	return stmt{kind: kPoint, text: "SELECT * FROM emp WHERE id = " + strconv.FormatInt(id, 10),
		check: func(a answer) error {
			return sameRows(a.rows, [][]int64{w.empRow(id)})
		}}
}

func (w *workload) rangeSel(lo int64) stmt {
	hi := lo + int64(w.RangeWidth)
	return stmt{kind: kRange, text: fmt.Sprintf("SELECT * FROM emp WHERE id >= %d AND id < %d", lo, hi),
		check: func(a answer) error {
			want := make([][]int64, 0, w.RangeWidth)
			for id := lo; id < hi; id++ {
				want = append(want, w.empRow(id))
			}
			got := slices.Clone(a.rows)
			slices.SortFunc(got, func(x, y []int64) int { return int(x[0] - y[0]) })
			return sameRows(got, want)
		}}
}

func (w *workload) insert(vals [][3]int64) stmt {
	var b strings.Builder
	b.WriteString("INSERT INTO emp VALUES ")
	for i, v := range vals {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, %d, %d)", v[0], v[1], v[2])
	}
	n := int64(len(vals))
	return stmt{kind: kInsert, text: b.String(), check: func(a answer) error {
		if a.affected != n {
			return fmt.Errorf("INSERT of %d rows reported %d affected", n, a.affected)
		}
		w.ledger.add(n, 0)
		return nil
	}}
}

// deleteFresh removes every row inserted during the run, which keeps emp
// bounded; base rows are never deleted, so reads stay checkable.
func (w *workload) deleteFresh() stmt {
	return stmt{kind: kDelete, text: fmt.Sprintf("DELETE FROM emp WHERE id >= %d", w.EmpRows),
		check: func(a answer) error {
			if a.affected < 0 {
				return fmt.Errorf("DELETE reported %d affected", a.affected)
			}
			w.ledger.add(0, a.affected)
			return nil
		}}
}

func (w *workload) join(lo int64) stmt {
	text := fmt.Sprintf("SELECT emp.id, emp.salary, proj.hours FROM emp JOIN proj ON emp.id = proj.emp"+
		" WHERE emp.id >= %d AND emp.id < %d", lo, lo+int64(w.Window))
	return stmt{kind: kJoin, text: text, check: func(a answer) error {
		ref := w.joinRef[lo]
		var h uint64
		for _, r := range a.rows {
			h += rowHash(r)
		}
		if len(a.rows) != ref.rows || h != ref.hash {
			return fmt.Errorf("join returned %d rows (hash %x), want %d (hash %x)", len(a.rows), h, ref.rows, ref.hash)
		}
		return w.ledger.sameBill(text, a.counters)
	}}
}

func (w *workload) groupBy(floor int64) stmt {
	text := fmt.Sprintf("SELECT dept, COUNT(*), SUM(salary) FROM emp WHERE salary >= %d GROUP BY dept", floor)
	return stmt{kind: kGroupBy, text: text, check: func(a answer) error {
		if err := sameRows(a.rows, w.groupRef[floor]); err != nil {
			return err
		}
		return w.ledger.sameBill(text, a.counters)
	}}
}

func (w *workload) topK(dept int64) stmt {
	text := fmt.Sprintf("SELECT * FROM emp WHERE dept = %d ORDER BY salary DESC LIMIT %d", dept, w.TopK)
	return stmt{kind: kTopK, text: text, check: func(a answer) error {
		want := w.topRef[dept]
		if len(a.rows) != len(want) {
			return fmt.Errorf("top-k returned %d rows, want %d", len(a.rows), len(want))
		}
		// Equal salaries may come in any (deterministic) order, so check
		// the salary sequence and that every row is a real row of dept.
		for i, r := range a.rows {
			id := r[0]
			if r[2] != want[i] || id < 0 || id >= int64(w.EmpRows) || !slices.Equal(r, w.empRow(id)) || r[1] != dept {
				return fmt.Errorf("top-k row %d = %v, want salary %d in dept %d", i, r, want[i], dept)
			}
		}
		return w.ledger.sameBill(text, a.counters)
	}}
}

func sameRows(got, want [][]int64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if !slices.Equal(got[i], want[i]) {
			return fmt.Errorf("row %d = %v, want %v", i, got[i], want[i])
		}
	}
	return nil
}
