package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"mmdb/internal/tuple"
)

// Small geometry keeps trees deep at small scale.
func smallConfig() Config {
	return Config{PageSize: 256, KeyWidth: 8, PointerWidth: 4, TupleWidth: 16}
}

func key(k int64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(k)^(1<<63))
	return b[:]
}

func tup(k, v int64) tuple.Tuple {
	t := make(tuple.Tuple, 16)
	copy(t, key(k))
	binary.BigEndian.PutUint64(t[8:], uint64(v))
	return t
}

// wideTup returns a w-byte tuple holding key(k) in its first bytes.
func wideTup(k int64, w int) tuple.Tuple {
	t := make(tuple.Tuple, w)
	copy(t, key(k))
	return t
}

func search(tr *Tree, k []byte) []tuple.Tuple {
	got, _ := tr.Search(k, nil)
	return got
}

// removeAll removes every tuple stored under k, returning how many went.
func removeAll(tr *Tree, k []byte) int {
	n := 0
	for _, v := range search(tr, k) {
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
	tr := MustNew(smallConfig())
	const n = 500
	for k := int64(0); k < n; k++ {
		tr.Insert(key(k), tup(k, k))
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

func TestGeometry(t *testing.T) {
	cfg := smallConfig()
	if cfg.Fanout() != 256/12 {
		t.Fatalf("fanout = %d", cfg.Fanout())
	}
	if cfg.LeafCapacity() != 16 {
		t.Fatalf("leaf capacity = %d", cfg.LeafCapacity())
	}
	if _, err := New(Config{PageSize: 10, KeyWidth: 8, TupleWidth: 16}); err == nil {
		t.Fatal("degenerate geometry accepted")
	}
}

func TestInsertSearch(t *testing.T) {
	tr := MustNew(smallConfig())
	const n = 2000
	rng := rand.New(rand.NewSource(1))
	perm := rng.Perm(n)
	for _, k := range perm {
		tr.Insert(key(int64(k)), tup(int64(k), int64(k)*10))
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.NumTuples() != n {
		t.Fatalf("tuples = %d", tr.NumTuples())
	}
	for i := 0; i < 200; i++ {
		k := int64(rng.Intn(n))
		got, _ := tr.Search(key(k), nil)
		if len(got) != 1 || !bytes.Equal(got[0], tup(k, k*10)) {
			t.Fatalf("search(%d) = %v", k, got)
		}
	}
	if got, _ := tr.Search(key(n+5), nil); got != nil {
		t.Fatal("found a missing key")
	}
}

func TestDuplicatesAcrossSplits(t *testing.T) {
	tr := MustNew(smallConfig())
	// Insert enough duplicates of a few keys that they straddle leaf
	// splits; searches must find every copy.
	counts := map[int64]int{3: 40, 7: 25, 9: 1}
	order := []int64{}
	for k, n := range counts {
		for i := 0; i < n; i++ {
			order = append(order, k)
		}
	}
	rand.New(rand.NewSource(2)).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	for i, k := range order {
		tr.Insert(key(k), tup(k, int64(i)))
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for k, n := range counts {
		if got := len(search(tr, key(k))); got != n {
			t.Fatalf("key %d: found %d of %d duplicates", k, got, n)
		}
	}
	if removed := removeAll(tr, key(3)); removed != 40 {
		t.Fatalf("delete removed %d of 40", removed)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got, _ := tr.Search(key(3), nil); got != nil {
		t.Fatal("deleted duplicates still found")
	}
	if got := len(search(tr, key(7))); got != 25 {
		t.Fatalf("unrelated key disturbed: %d", got)
	}
}

func TestAscendRange(t *testing.T) {
	tr := MustNew(smallConfig())
	for i := int64(0); i < 500; i += 2 {
		tr.Insert(key(i), tup(i, i))
	}
	var got []int64
	tr.AscendRange(key(101), nil, func(k []byte, _ tuple.Tuple) bool {
		got = append(got, int64(binary.BigEndian.Uint64(k)^(1<<63)))
		return len(got) < 5
	})
	want := []int64{102, 104, 106, 108, 110}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
	// Full walk is sorted and complete.
	count := 0
	last := int64(-1)
	tr.AscendRange(nil, nil, func(k []byte, _ tuple.Tuple) bool {
		v := int64(binary.BigEndian.Uint64(k) ^ (1 << 63))
		if v <= last {
			t.Fatalf("out of order: %d after %d", v, last)
		}
		last = v
		count++
		return true
	})
	if count != 250 {
		t.Fatalf("walked %d of 250", count)
	}
}

func TestPageAccessesMatchHeightPlusOne(t *testing.T) {
	// §2: a random B+-tree lookup touches height+1 pages (root..leaf).
	tr := MustNew(smallConfig())
	rng := rand.New(rand.NewSource(3))
	const n = 5000
	for _, k := range rng.Perm(n) {
		tr.Insert(key(int64(k)), tup(int64(k), 0))
	}
	visits := 0
	const lookups = 500
	for i := 0; i < lookups; i++ {
		tr.Search(key(int64(rng.Intn(n))), func(NodeID) { visits++ })
	}
	mean := float64(visits) / lookups
	// Unique keys: descent path length == tree height, occasionally +1 for
	// a leaf-chain peek at a separator boundary.
	if mean < float64(tr.Height()) || mean > float64(tr.Height())+1 {
		t.Fatalf("mean pages/lookup %.2f, height %d", mean, tr.Height())
	}
}

func TestComparisonsAreLogarithmic(t *testing.T) {
	tr := MustNew(Config{PageSize: 4096, KeyWidth: 8, PointerWidth: 4, TupleWidth: 100})
	rng := rand.New(rand.NewSource(4))
	const n = 50000
	for _, k := range rng.Perm(n) {
		tr.Insert(key(int64(k)), wideTup(int64(k), 100))
	}
	tr.ResetComparisons()
	const lookups = 1000
	for i := 0; i < lookups; i++ {
		tr.Search(key(int64(rng.Intn(n))), nil)
	}
	perLookup := float64(tr.Comparisons()) / lookups
	// §2: C' ≈ log2(||R||) comparisons.
	if want := math.Log2(n); math.Abs(perLookup-want) > 6 {
		t.Fatalf("%.1f comparisons/lookup, model predicts ≈%.1f", perLookup, want)
	}
}

func TestBulkLoad(t *testing.T) {
	tr := MustNew(smallConfig())
	const n = 3000
	keys := make([][]byte, n)
	tups := make([]tuple.Tuple, n)
	for i := 0; i < n; i++ {
		keys[i] = key(int64(i))
		tups[i] = tup(int64(i), int64(i))
	}
	if err := tr.BulkLoad(keys, tups, 0); err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.NumTuples() != n {
		t.Fatalf("tuples = %d", tr.NumTuples())
	}
	// Yao fill: leaves ≈ n / (capacity * 0.69).
	wantLeaves := float64(n) / (float64(tr.Config().LeafCapacity()) * YaoFill)
	if got := float64(tr.NumLeaves()); math.Abs(got-wantLeaves) > wantLeaves*0.15 {
		t.Fatalf("leaves = %.0f, expected ≈%.0f at 69%% fill", got, wantLeaves)
	}
	for i := 0; i < 100; i++ {
		k := int64(rand.New(rand.NewSource(int64(i))).Intn(n))
		if got, _ := tr.Search(key(k), nil); len(got) != 1 {
			t.Fatalf("bulk-loaded key %d: %d hits", k, len(got))
		}
	}
	// Unsorted input rejected.
	if err := tr.BulkLoad([][]byte{key(2), key(1)}, []tuple.Tuple{tup(2, 0), tup(1, 0)}, 0); err == nil {
		t.Fatal("unsorted bulk load accepted")
	}
}

func TestRandomInsertOccupancyNearYao(t *testing.T) {
	// [YAO78]: nodes under random insertion average ~69% occupancy. Allow
	// a generous band; the point is that the paper's fanout discount is
	// the right order.
	tr := MustNew(smallConfig())
	rng := rand.New(rand.NewSource(6))
	const n = 20000
	for _, k := range rng.Perm(n) {
		tr.Insert(key(int64(k)), tup(int64(k), 0))
	}
	occ := float64(tr.NumTuples()) / float64(tr.NumLeaves()*tr.Config().LeafCapacity())
	if occ < 0.60 || occ > 0.80 {
		t.Fatalf("leaf occupancy %.2f, expected ≈0.69", occ)
	}
}

func TestQuickMatchesSortedOracle(t *testing.T) {
	f := func(seed int64, nOps uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := MustNew(smallConfig())
		oracle := map[int64]int{}
		ops := int(nOps)%500 + 30
		for i := 0; i < ops; i++ {
			k := int64(rng.Intn(50))
			if rng.Intn(4) == 0 {
				removed := removeAll(tr, key(k))
				if removed != oracle[k] {
					return false
				}
				delete(oracle, k)
			} else {
				tr.Insert(key(k), tup(k, int64(i)))
				oracle[k]++
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Log(err)
			return false
		}
		total := 0
		for k, n := range oracle {
			if got := len(search(tr, key(k))); got != n {
				t.Logf("key %d: got %d want %d", k, len(search(tr, key(k))), n)
				return false
			}
			total += n
		}
		if tr.NumTuples() != total {
			return false
		}
		var walked []int64
		tr.AscendRange(nil, nil, func(k []byte, _ tuple.Tuple) bool {
			walked = append(walked, int64(binary.BigEndian.Uint64(k)^(1<<63)))
			return true
		})
		return sort.SliceIsSorted(walked, func(i, j int) bool { return walked[i] < walked[j] }) && len(walked) == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// entry is one (key, tuple) pair of the sorted-slice oracle.
type entry struct{ k, v int64 }

// TestRemoveMatchesSortedOracle removes entries one by one — among them
// duplicate keys spread over many leaves — and after each checks the
// invariants and that an ascending walk equals a sorted-slice oracle.
func TestRemoveMatchesSortedOracle(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := MustNew(smallConfig()) // 16 tuples per leaf
		var oracle []entry
		for i := 0; i < 600; i++ {
			k := int64(rng.Intn(40)) // ~15 duplicates per key: runs straddle leaves
			if rng.Intn(5) == 0 {
				k = 7 // one key with ~120 duplicates over many leaves
			}
			tr.Insert(key(k), tup(k, int64(i)))
			oracle = append(oracle, entry{k, int64(i)})
		}
		sortEntries(oracle)
		if tr.Remove(key(7), tup(7, -1)) || tr.Remove(key(99), tup(99, 0)) {
			t.Fatal("removed an absent entry")
		}
		for len(oracle) > 0 {
			i := rng.Intn(len(oracle))
			e := oracle[i]
			if !tr.Remove(key(e.k), tup(e.k, e.v)) {
				t.Fatalf("seed %d: entry %v not found", seed, e)
			}
			oracle = append(oracle[:i], oracle[i+1:]...)
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("seed %d after removing %v: %v", seed, e, err)
			}
			var walked []entry
			tr.AscendRange(nil, nil, func(k []byte, v tuple.Tuple) bool {
				walked = append(walked, entry{int64(binary.BigEndian.Uint64(k) ^ 1<<63), int64(binary.BigEndian.Uint64(v[8:]))})
				return true
			})
			sortEntries(walked) // equal keys need not keep insertion order
			if !slices.Equal(walked, oracle) {
				t.Fatalf("seed %d after removing %v: walk differs from the oracle", seed, e)
			}
			if n := len(search(tr, key(e.k))); n != countKey(oracle, e.k) {
				t.Fatalf("seed %d: search(%d) found %d, oracle %d", seed, e.k, n, countKey(oracle, e.k))
			}
		}
		if tr.NumLeaves() != 0 || tr.Height() != 0 || tr.NumPages() != 0 {
			t.Fatalf("emptied tree keeps %d pages, height %d", tr.NumPages(), tr.Height())
		}
	}
}

func sortEntries(es []entry) {
	sort.Slice(es, func(i, j int) bool {
		if es[i].k != es[j].k {
			return es[i].k < es[j].k
		}
		return es[i].v < es[j].v
	})
}

func countKey(es []entry, k int64) int {
	n := 0
	for _, e := range es {
		if e.k == k {
			n++
		}
	}
	return n
}

// TestRemoveChurnDoesNotLeakLeaves: a sliding window of live keys over 20k
// insert/remove cycles on increasing keys. Leaves emptied on the left
// must leave the tree, so the page count stays bounded by the live tuples
// rather than growing with the history.
func TestRemoveChurnDoesNotLeakLeaves(t *testing.T) {
	tr := MustNew(smallConfig())
	const window, cycles = 100, 20000
	for i := int64(0); i < cycles; i++ {
		tr.Insert(key(i), tup(i, i))
		if i >= window {
			if !tr.Remove(key(i-window), tup(i-window, i-window)) {
				t.Fatalf("cycle %d: key %d missing", i, i-window)
			}
		}
		if tr.NumTuples() > window+1 {
			t.Fatalf("cycle %d: %d tuples", i, tr.NumTuples())
		}
		// Every live leaf holds at least one tuple; half-full splits give
		// at most ~2 leaves per leaf's worth of live tuples, plus the tip.
		if bound := 2*window/tr.Config().LeafCapacity() + 2; tr.NumLeaves() > bound {
			t.Fatalf("cycle %d: %d leaves for %d live tuples (bound %d)", i, tr.NumLeaves(), tr.NumTuples(), bound)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.Height() > 3 {
		t.Fatalf("height %d after churn over %d live tuples", tr.Height(), window)
	}
}

// TestRemoveReplaceAndClone: Replace swaps one duplicate's tuple in place, and a
// Clone has the same shape and page IDs but evolves independently.
func TestRemoveReplaceAndClone(t *testing.T) {
	tr := MustNew(smallConfig())
	for i := int64(0); i < 300; i++ {
		tr.Insert(key(i%20), tup(i%20, i))
	}
	if !tr.Replace(key(5), tup(5, 45), tup(5, 1000)) || tr.Replace(key(5), tup(5, 45), tup(5, 1)) {
		t.Fatal("Replace found the wrong entries")
	}
	c := tr.Clone()
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	var visitsT, visitsC []NodeID
	_, ct := tr.Search(key(5), func(id NodeID) { visitsT = append(visitsT, id) })
	got, cc := c.Search(key(5), func(id NodeID) { visitsC = append(visitsC, id) })
	if ct != cc || fmt.Sprint(visitsT) != fmt.Sprint(visitsC) || c.NumPages() != tr.NumPages() {
		t.Fatalf("clone probes differently: %d vs %d comparisons, pages %v vs %v", cc, ct, visitsC, visitsT)
	}
	found := false
	for _, v := range got {
		found = found || bytes.Equal(v, tup(5, 1000))
	}
	if !found || len(got) != 15 {
		t.Fatalf("clone search(5) = %d tuples, replaced one found %v", len(got), found)
	}
	for i := int64(0); i < 300; i++ {
		c.Remove(key(i%20), tup(i%20, i))
	}
	if tr.NumTuples() != 300 || len(search(tr, key(5))) != 15 {
		t.Fatal("removing from the clone changed the original")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
