package avl

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"mmdb/internal/tuple"
)

func key(k int64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(k)^(1<<63))
	return b[:]
}

func tup(k int64) tuple.Tuple {
	return tuple.Tuple(key(k))
}

func search(tr *Tree, k []byte) []tuple.Tuple {
	got, _ := tr.Search(k, nil)
	return got
}

// removeAll removes every tuple stored under k, returning how many went.
func removeAll(tr *Tree, k []byte) int {
	n := 0
	for _, v := range append([]tuple.Tuple(nil), search(tr, k)...) {
		if tr.Remove(k, v) {
			n++
		}
	}
	return n
}

// TestConcurrentSearchComparisons runs lookups from two goroutines (the
// shared-intent read pattern) and checks that Comparisons is exactly the
// sum of the per-call counts; under -race it also proves readers share no
// plain counter.
func TestConcurrentSearchComparisons(t *testing.T) {
	tr := &Tree{}
	const n = 500
	for k := int64(0); k < n; k++ {
		tr.Insert(key(k), tup(k))
	}
	tr.ResetComparisons()
	var sums [2]int64
	done := make(chan int)
	for g := range sums {
		go func() {
			for i := int64(0); i < 2000; i++ {
				got, c := tr.Search(key((i*7+int64(g))%n), nil)
				if len(got) != 1 || c <= 0 {
					t.Errorf("search: %d tuples, %d comparisons", len(got), c)
				}
				sums[g] += c
			}
			done <- g
		}()
	}
	<-done
	<-done
	if got := tr.Comparisons(); got != sums[0]+sums[1] {
		t.Fatalf("Comparisons() = %d, per-call sum %d", got, sums[0]+sums[1])
	}
}

func TestInsertSearchDelete(t *testing.T) {
	tr := &Tree{}
	for i := int64(0); i < 100; i++ {
		tr.Insert(key(i), tup(i))
	}
	if tr.Len() != 100 || tr.NumTuples() != 100 {
		t.Fatalf("len=%d tuples=%d", tr.Len(), tr.NumTuples())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got, _ := tr.Search(key(42), nil); len(got) != 1 || !bytes.Equal(got[0], tup(42)) {
		t.Fatalf("search(42) = %v", got)
	}
	if got, _ := tr.Search(key(1000), nil); got != nil {
		t.Fatalf("search(missing) = %v", got)
	}
	if !tr.Remove(key(42), tup(42)) {
		t.Fatal("remove(42) failed")
	}
	if tr.Remove(key(42), tup(42)) {
		t.Fatal("double remove succeeded")
	}
	if got, _ := tr.Search(key(42), nil); got != nil {
		t.Fatal("deleted key still found")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicateKeysChain(t *testing.T) {
	tr := &Tree{}
	for i := 0; i < 5; i++ {
		tr.Insert(key(7), tup(int64(i)))
	}
	if tr.Len() != 1 || tr.NumTuples() != 5 {
		t.Fatalf("len=%d tuples=%d", tr.Len(), tr.NumTuples())
	}
	if got, _ := tr.Search(key(7), nil); len(got) != 5 {
		t.Fatalf("found %d duplicates", len(got))
	}
	if removeAll(tr, key(7)) != 5 || tr.NumTuples() != 0 || tr.Len() != 0 {
		t.Fatal("delete of duplicate chain broken")
	}
}

func TestHeightIsLogarithmic(t *testing.T) {
	tr := &Tree{}
	const n = 1 << 14
	for i := 0; i < n; i++ {
		tr.Insert(key(int64(i)), tup(int64(i))) // worst case: sorted inserts
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// AVL height bound: 1.44 * log2(n+2).
	max := int(1.4405*math.Log2(float64(n+2))) + 1
	if tr.Height() > max {
		t.Fatalf("height %d exceeds AVL bound %d for %d sorted inserts", tr.Height(), max, n)
	}
}

func TestSearchVisitsAboutLog2NNodes(t *testing.T) {
	// The §2 cost model: C = log2(||R||) + 0.25 expected comparisons.
	tr := &Tree{}
	rng := rand.New(rand.NewSource(5))
	const n = 50000
	perm := rng.Perm(n)
	for _, k := range perm {
		tr.Insert(key(int64(k)), tup(int64(k)))
	}
	tr.ResetComparisons()
	const lookups = 2000
	visits := 0
	for i := 0; i < lookups; i++ {
		k := int64(perm[rng.Intn(n)])
		tr.Search(key(k), func(NodeID) { visits++ })
	}
	mean := float64(visits) / lookups
	want := math.Log2(n) + 0.25
	if math.Abs(mean-want) > 2.5 {
		t.Fatalf("mean path length %.2f, model predicts %.2f", mean, want)
	}
}

func TestAscendInOrderFromStart(t *testing.T) {
	tr := &Tree{}
	keys := []int64{5, 1, 9, 3, 7, 2, 8}
	for _, k := range keys {
		tr.Insert(key(k), tup(k))
	}
	var got []int64
	tr.Ascend(key(3), nil, func(k []byte, vals []tuple.Tuple) bool {
		got = append(got, int64(binary.BigEndian.Uint64(k)^(1<<63)))
		return true
	})
	want := []int64{3, 5, 7, 8, 9}
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
	// Early stop.
	n := 0
	tr.Ascend(nil, nil, func([]byte, []tuple.Tuple) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestMin(t *testing.T) {
	tr := &Tree{}
	if k, _ := tr.Min(); k != nil {
		t.Fatal("empty tree has a min")
	}
	for _, k := range []int64{5, -3, 9} {
		tr.Insert(key(k), tup(k))
	}
	if k, _ := tr.Min(); !bytes.Equal(k, key(-3)) {
		t.Fatalf("min = %x", k)
	}
}

// TestQuickRandomOpsMatchMapOracle drives random insert/delete/search
// against a map oracle and checks the AVL invariants throughout.
func TestQuickRandomOpsMatchMapOracle(t *testing.T) {
	f := func(seed int64, opsN uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := &Tree{}
		oracle := map[int64]int{}
		ops := int(opsN)%400 + 50
		for i := 0; i < ops; i++ {
			k := int64(rng.Intn(60))
			switch rng.Intn(3) {
			case 0, 1:
				tr.Insert(key(k), tup(k))
				oracle[k]++
			case 2:
				if removeAll(tr, key(k)) != oracle[k] {
					return false
				}
				delete(oracle, k)
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Log(err)
			return false
		}
		// Every oracle key present with the right multiplicity; in-order
		// traversal sorted.
		total := 0
		for k, n := range oracle {
			if got := len(search(tr, key(k))); got != n {
				return false
			}
			total += n
		}
		if tr.NumTuples() != total || tr.Len() != len(oracle) {
			return false
		}
		var keys []int64
		tr.Ascend(nil, nil, func(k []byte, _ []tuple.Tuple) bool {
			keys = append(keys, int64(binary.BigEndian.Uint64(k)^(1<<63)))
			return true
		})
		if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestRemoveOneOfDuplicates removes entries one at a time against a
// sorted-slice oracle: a key keeps its node until its last tuple goes.
func TestRemoveOneOfDuplicates(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr := &Tree{}
	type entry struct{ k, v int64 }
	var oracle []entry
	val := func(k, v int64) tuple.Tuple { return append(tup(k), key(v)...) }
	for i := int64(0); i < 400; i++ {
		k := int64(rng.Intn(30))
		tr.Insert(key(k), val(k, i))
		oracle = append(oracle, entry{k, i})
	}
	if tr.Remove(key(3), val(3, -1)) || tr.Remove(key(99), val(99, 0)) {
		t.Fatal("removed an absent entry")
	}
	for len(oracle) > 0 {
		i := rng.Intn(len(oracle))
		e := oracle[i]
		if !tr.Remove(key(e.k), val(e.k, e.v)) {
			t.Fatalf("entry %v not found", e)
		}
		oracle = append(oracle[:i], oracle[i+1:]...)
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		want := map[int64]int{}
		for _, o := range oracle {
			want[o.k]++
		}
		if tr.Len() != len(want) || tr.NumTuples() != len(oracle) {
			t.Fatalf("%d keys, %d tuples; oracle %d, %d", tr.Len(), tr.NumTuples(), len(want), len(oracle))
		}
		if got := len(search(tr, key(e.k))); got != want[e.k] {
			t.Fatalf("key %d: %d tuples, oracle %d", e.k, got, want[e.k])
		}
	}
}

// TestRemoveReplaceAndClone: Replace swaps one tuple in place, and a Clone has
// the same shape and node IDs but evolves independently.
func TestRemoveReplaceAndClone(t *testing.T) {
	tr := &Tree{}
	for i := int64(0); i < 200; i++ {
		tr.Insert(key(i%10), tuple.Tuple(append(key(i%10), key(i)...)))
	}
	old := tuple.Tuple(append(key(4), key(14)...))
	repl := tuple.Tuple(append(key(4), key(1000)...))
	if !tr.Replace(key(4), old, repl) || tr.Replace(key(4), old, repl) {
		t.Fatal("Replace found the wrong entries")
	}
	if got := search(tr, key(4)); !bytes.Equal(got[1], repl) {
		t.Fatal("Replace did not keep the entry's place")
	}
	c := tr.Clone()
	var visitsT, visitsC []NodeID
	_, ct := tr.Search(key(4), func(id NodeID) { visitsT = append(visitsT, id) })
	_, cc := c.Search(key(4), func(id NodeID) { visitsC = append(visitsC, id) })
	if ct != cc || len(visitsT) != len(visitsC) || visitsT[len(visitsT)-1] != visitsC[len(visitsC)-1] {
		t.Fatalf("clone probes differently: %v vs %v", visitsC, visitsT)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if removeAll(c, key(4)) != 20 || c.Len() != 9 || tr.Len() != 10 || len(search(tr, key(4))) != 20 {
		t.Fatal("removing from the clone changed the original")
	}
}
