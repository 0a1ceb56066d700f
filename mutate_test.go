package mmdb

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"mmdb/internal/cost"
	"mmdb/internal/heap"
	"mmdb/internal/simio"
)

// mutationOracle mirrors a relation's mutations on a plain model: the
// rows in storage order, and a reference heap file laid out as the
// whole-relation compaction always left it — every statement's rows
// appended and flushed, and every DELETE or Update re-appending all the
// survivors into a fresh file.
type mutationOracle struct {
	t      *testing.T
	schema *Schema
	disk   *simio.Disk
	rows   []Tuple
	ref    *heap.File
	files  int
}

func newMutationOracle(t *testing.T, schema *Schema, pageSize int) *mutationOracle {
	o := &mutationOracle{t: t, schema: schema, disk: simio.NewDisk(cost.NewClock(cost.DefaultParams()), pageSize)}
	o.reload()
	return o
}

func (o *mutationOracle) insert(rows []Tuple) {
	for _, r := range rows {
		o.rows = append(o.rows, r.Clone())
		if err := o.ref.Append(r, simio.Uncharged); err != nil {
			o.t.Fatal(err)
		}
	}
	if err := o.ref.Flush(simio.Uncharged); err != nil {
		o.t.Fatal(err)
	}
}

// rewrite applies fn to the rows matching match (nil deletes), returning
// the rows matched, and rebuilds the reference from the result.
func (o *mutationOracle) rewrite(match func(Tuple) bool, fn func(Tuple) Tuple) int64 {
	var out []Tuple
	n := int64(0)
	for _, r := range o.rows {
		if !match(r) {
			out = append(out, r)
			continue
		}
		n++
		if r2 := fn(r); r2 != nil {
			out = append(out, r2)
		}
	}
	o.rows = out
	o.reload()
	return n
}

func (o *mutationOracle) reload() {
	if o.ref != nil {
		o.ref.Drop()
	}
	o.files++
	o.ref = heap.MustCreate(o.disk, fmt.Sprint("ref", o.files), o.schema)
	if err := o.ref.Load(o.rows); err != nil {
		o.t.Fatal(err)
	}
}

// check compares rel's heap pages with the reference byte for byte, and
// every index with a fresh build over the heap: the same (key, tuple)
// multiset, walked in key order, in a structurally valid tree.
func (o *mutationOracle) check(step string, rel *Relation) {
	t := o.t
	t.Helper()
	file := rel.rel.File
	if file.NumPages() != o.ref.NumPages() || file.NumTuples() != o.ref.NumTuples() {
		t.Fatalf("%s: heap has %d pages, %d rows; reference %d, %d",
			step, file.NumPages(), file.NumTuples(), o.ref.NumPages(), o.ref.NumTuples())
	}
	for i := 0; i < file.NumPages(); i++ {
		got, err := file.ReadPage(i, simio.Uncharged)
		if err != nil {
			t.Fatal(err)
		}
		want, err := o.ref.ReadPage(i, simio.Uncharged)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%s: heap page %d differs from the full compaction's", step, i)
		}
	}
	for _, col := range rel.rel.IndexedColumns() {
		ix, _ := rel.rel.Index(col)
		if err := ix.CheckInvariants(); err != nil {
			t.Fatalf("%s: index on %d: %v", step, col, err)
		}
		var fresh, walked []string
		for _, r := range o.rows {
			fresh = append(fresh, string(o.schema.KeyBytes(r, col))+string(r))
		}
		var last []byte
		ix.Ascend(nil, func(key []byte, tup Tuple) bool {
			if bytes.Compare(key, last) < 0 {
				t.Fatalf("%s: index on %d walks out of key order", step, col)
			}
			last = append(last[:0], key...)
			walked = append(walked, string(key)+string(tup))
			return true
		})
		sort.Strings(fresh)
		sort.Strings(walked)
		if fmt.Sprint(walked) != fmt.Sprint(fresh) || ix.Len() != len(o.rows) {
			t.Fatalf("%s: index on %d holds %d entries, a fresh build %d, or different ones",
				step, col, ix.Len(), len(o.rows))
		}
	}
}

// TestMutationsMatchFullCompactionOracle drives random statement
// sequences against a relation with a B+-tree on id and an AVL tree on
// the duplicate-heavy dept: single- and multi-row INSERTs flushed per
// statement; DELETE … WHERE with indexed, unindexed, zero-victim and nil
// predicates; Delete; and Update, with and without a change of an
// indexed key. After every step the heap must match the whole-relation
// compaction byte for byte and each index a fresh build.
func TestMutationsMatchFullCompactionOracle(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			db := openTestDB(t)
			schema := empSchema()
			rel, err := db.CreateRelation("emp", schema)
			if err != nil {
				t.Fatal(err)
			}
			o := newMutationOracle(t, schema, 512)
			nextID := int64(0)
			row := func(id int64) Tuple {
				return schema.MustEncode(IntValue(id), IntValue(rng.Int63n(6)),
					IntValue(1000+rng.Int63n(50)), StringValue(fmt.Sprint("e", id)))
			}
			insert := func(n int) {
				var rows []Tuple
				for i := 0; i < n; i++ {
					rows = append(rows, row(nextID))
					nextID++
				}
				for _, r := range rows {
					if err := rel.InsertTuple(r); err != nil {
						t.Fatal(err)
					}
				}
				if err := rel.Flush(); err != nil {
					t.Fatal(err)
				}
				o.insert(rows)
			}
			insert(120)
			if err := rel.CreateIndex("id", BTree); err != nil {
				t.Fatal(err)
			}
			if err := rel.CreateIndex("dept", AVL); err != nil {
				t.Fatal(err)
			}
			o.check("load", rel)
			field := func(col int) func(Tuple) int64 {
				return func(r Tuple) int64 { return schema.Int(r, col) }
			}
			id, dept, salary := field(0), field(1), field(2)
			where := func(column string, op CompareOp, v int64) *Pred {
				return db.MustWhere("emp", column, op, IntValue(v))
			}
			for step := 0; step < 200; step++ {
				var (
					desc  string
					got   int64
					match func(Tuple) bool
					fn    = func(Tuple) Tuple { return nil }
				)
				tail := nextID - 1 - rng.Int63n(12)
				d, s := rng.Int63n(6), 1000+rng.Int63n(50)
				live := nextID // an id no row has
				if len(o.rows) > 0 {
					live = id(o.rows[rng.Intn(len(o.rows))])
				}
				switch op := rng.Intn(14); op {
				case 0, 1, 2, 12, 13:
					n := 1
					if op >= 12 {
						n = 2 + rng.Intn(25)
					}
					insert(n)
					o.check(fmt.Sprintf("step %d: insert %d", step, n), rel)
					continue
				case 3:
					desc, match = fmt.Sprintf("DELETE WHERE id >= %d", tail), func(r Tuple) bool { return id(r) >= tail }
					got, err = rel.DeleteWhere(where("id", Ge, tail))
				case 4:
					x := live
					desc, match = fmt.Sprintf("DELETE WHERE id = %d", x), func(r Tuple) bool { return id(r) == x }
					got, err = rel.DeleteWhere(where("id", Eq, x))
				case 5:
					desc, match = fmt.Sprintf("DELETE WHERE dept = %d AND id > %d", d, tail-40),
						func(r Tuple) bool { return dept(r) == d && id(r) > tail-40 }
					got, err = rel.DeleteWhere(where("dept", Eq, d).And(where("id", Gt, tail-40)))
				case 6:
					s -= 42
					desc, match = fmt.Sprintf("DELETE WHERE salary < %d", s), func(r Tuple) bool { return salary(r) < s }
					got, err = rel.DeleteWhere(where("salary", Lt, s))
				case 7:
					desc, match = "DELETE WHERE id < 0", func(Tuple) bool { return false }
					got, err = rel.DeleteWhere(where("id", Lt, 0))
				case 8:
					if rng.Intn(8) == 0 {
						desc, match = "DELETE", func(Tuple) bool { return true }
						got, err = rel.DeleteWhere(nil)
					} else {
						desc, match = fmt.Sprintf("Delete(dept, %d)", d), func(r Tuple) bool { return dept(r) == d }
						got, err = rel.Delete("dept", IntValue(d))
					}
				case 9: // no indexed key changes: replaced in place
					x := live
					desc, match = fmt.Sprintf("Update(id=%d, salary=%d)", x, s), func(r Tuple) bool { return id(r) == x }
					fn = func(r Tuple) Tuple { out := r.Clone(); schema.Set(out, 2, IntValue(s)); return out }
					got, err = rel.Update("id", IntValue(x), "salary", IntValue(s))
				case 10: // the AVL key changes: removed and reinserted
					d2 := (d + 1) % 6
					desc, match = fmt.Sprintf("Update(dept=%d, dept=%d)", d, d2), func(r Tuple) bool { return dept(r) == d }
					fn = func(r Tuple) Tuple { out := r.Clone(); schema.Set(out, 1, IntValue(d2)); return out }
					got, err = rel.Update("dept", IntValue(d), "dept", IntValue(d2))
				case 11: // the B+-tree key changes, sometimes onto a live id
					x, y := live, rng.Int63n(nextID+5)
					desc, match = fmt.Sprintf("Update(id=%d, id=%d)", x, y), func(r Tuple) bool { return id(r) == x }
					fn = func(r Tuple) Tuple { out := r.Clone(); schema.Set(out, 0, IntValue(y)); return out }
					got, err = rel.Update("id", IntValue(x), "id", IntValue(y))
				}
				if err != nil {
					t.Fatalf("step %d: %s: %v", step, desc, err)
				}
				if want := o.rewrite(match, fn); got != want {
					t.Fatalf("step %d: %s touched %d rows, want %d", step, desc, got, want)
				}
				o.check(fmt.Sprintf("step %d: %s", step, desc), rel)
			}
		})
	}
}
