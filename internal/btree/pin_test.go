package btree

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"mmdb/internal/tuple"
)

// shape is what a tree's structure and probe cost come to: the figures
// the §2 experiments read off it.
type shape struct {
	leaves, pages, height int
	comps                 int64
}

func shapeOf(tr *Tree) shape {
	return shape{tr.NumLeaves(), tr.NumPages(), tr.Height(), tr.Comparisons()}
}

// TestShapePinned replays fixed insert-then-remove sequences and checks
// each tree's page counts, height and cumulative comparisons against
// literals recorded before leaves were packed, when a leaf split after
// the insert: splitting before it must grow and shrink the tree the same
// way.
func TestShapePinned(t *testing.T) {
	const n = 3000
	rng := rand.New(rand.NewSource(7))
	random := make([]int64, n)
	for i, k := range rng.Perm(n) {
		random[i] = int64(k)
	}
	sorted := make([]int64, n)
	dups := make([]int64, n)
	for i := range sorted {
		sorted[i] = int64(i)
		dups[i] = int64(rng.Intn(23))
	}
	half := rng.Perm(n)[:n/2]
	var thirds, prefix []int
	for i := 0; i < n; i += 3 {
		thirds = append(thirds, i)
	}
	all := rng.Perm(n)
	for i := 0; i < n/2; i++ {
		prefix = append(prefix, i)
	}
	small := smallConfig()
	paper := Config{PageSize: 4096, KeyWidth: 8, TupleWidth: 16}
	for _, c := range []struct {
		name    string
		cfg     Config
		keys    []int64
		removes []int
		// after the inserts, then after the removes
		want [2]shape
	}{
		{"random", small, random, half, [2]shape{{265, 282, 3, 31146}, {265, 282, 3, 49793}}},
		{"sorted", small, sorted, thirds, [2]shape{{374, 412, 4, 30089}, {374, 412, 4, 42873}}},
		{"dups", small, dups, half, [2]shape{{323, 349, 4, 30821}, {323, 349, 4, 122522}}},
		{"drain", small, random, all, [2]shape{{265, 282, 3, 31146}, {0, 0, 0, 66115}}},
		{"sorted-prefix", small, sorted, prefix, [2]shape{{374, 412, 4, 30089}, {187, 207, 4, 46369}}},
		{"paper-random", paper, random, thirds, [2]shape{{16, 17, 2, 30538}, {16, 17, 2, 42879}}},
		{"paper-sorted", paper, sorted, half, [2]shape{{23, 24, 2, 28953}, {23, 24, 2, 47380}}},
	} {
		tr := MustNew(c.cfg)
		for i, k := range c.keys {
			tr.Insert(key(k), tup(k, int64(i)))
		}
		if got := shapeOf(tr); got != c.want[0] {
			t.Errorf("%s after inserts: %+v, want %+v", c.name, got, c.want[0])
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, i := range c.removes {
			if !tr.Remove(key(c.keys[i]), tup(c.keys[i], int64(i))) {
				t.Fatalf("%s: remove of entry %d missed", c.name, i)
			}
		}
		if got := shapeOf(tr); got != c.want[1] {
			t.Errorf("%s after removes: %+v, want %+v", c.name, got, c.want[1])
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	}
}

// TestSearchResultsSurviveMutation: Search hands out copies, so what it
// returned stays as it was while the leaves it came from shift, split,
// are overwritten in place and are emptied.
func TestSearchResultsSurviveMutation(t *testing.T) {
	tr := MustNew(smallConfig())
	for i := int64(0); i < 200; i++ {
		tr.Insert(key(i%10), tup(i%10, i))
	}
	got := search(tr, key(3))
	want := make([]tuple.Tuple, len(got))
	for i, v := range got {
		want[i] = v.Clone()
	}
	for i := int64(0); i < 200; i++ {
		tr.Insert(key(i%7), tup(i%7, 1000+i))
	}
	tr.Replace(key(3), tup(3, 3), tup(3, -1))
	for i := int64(0); i < 200; i++ {
		tr.Remove(key(i%10), tup(i%10, i))
	}
	if len(got) != 20 {
		t.Fatalf("search(3) = %d tuples, want 20", len(got))
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("result %d changed from %x to %x under later mutations", i, want[i], got[i])
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestInsertCopiesItsArguments: the caller may reuse the key and tuple
// buffers it passed to Insert and Replace.
func TestInsertCopiesItsArguments(t *testing.T) {
	tr := MustNew(smallConfig())
	k, v := key(1), tup(1, 1)
	tr.Insert(k, v)
	tr.Replace(key(1), tup(1, 1), v)
	clear(k)
	clear(v)
	got := search(tr, key(1))
	if len(got) != 1 || !bytes.Equal(got[0], tup(1, 1)) {
		t.Fatalf("search(1) = %x after clearing the inserted buffers", got)
	}
}

// TestCloneIsIndependent: after a Clone, inserts, in-place replaces and
// removes on either tree leave the other's contents untouched.
func TestCloneIsIndependent(t *testing.T) {
	tr := MustNew(smallConfig())
	for i := int64(0); i < 150; i++ {
		tr.Insert(key(i), tup(i, i))
	}
	c := tr.Clone()
	for i := int64(0); i < 150; i += 2 {
		tr.Replace(key(i), tup(i, i), tup(i, -i))
		c.Remove(key(i+1), tup(i+1, i+1))
	}
	c.Insert(key(500), tup(500, 500))
	for i := int64(0); i < 150; i++ {
		wantT, wantC := tup(i, i), tup(i, i)
		if i%2 == 0 {
			wantT = tup(i, -i)
		}
		if got := search(tr, key(i)); len(got) != 1 || !bytes.Equal(got[0], wantT) {
			t.Fatalf("original search(%d) = %x, want %x", i, got, wantT)
		}
		got := search(c, key(i))
		switch {
		case i%2 == 1 && len(got) != 0:
			t.Fatalf("clone still holds removed key %d", i)
		case i%2 == 0 && (len(got) != 1 || !bytes.Equal(got[0], wantC)):
			t.Fatalf("clone search(%d) = %x, want %x", i, got, wantC)
		}
	}
	if len(search(tr, key(500))) != 0 {
		t.Fatal("insert into the clone reached the original")
	}
	for _, x := range []*Tree{tr, c} {
		if err := x.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCheckInvariantsSeesPackedArrays: a leaf array that is not whole
// tuples, or a stale entry past the live ones, is reported.
func TestCheckInvariantsSeesPackedArrays(t *testing.T) {
	build := func() (*Tree, *leaf) {
		tr := MustNew(smallConfig())
		for i := int64(0); i < 5; i++ {
			tr.Insert(key(i), tup(i, i))
		}
		return tr, tr.root.(*leaf)
	}
	tr, l := build()
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	l.tups = l.tups[:len(l.tups)-1]
	if tr.CheckInvariants() == nil {
		t.Fatal("a short tuple array passed")
	}
	tr, l = build()
	l.tups = append(l.tups, make([]byte, tr.Config().TupleWidth)...)
	if tr.CheckInvariants() == nil {
		t.Fatal("an array with room past LeafCapacity passed")
	}
	tr, l = build()
	l.tups[len(l.tups)-1] = 1
	if tr.CheckInvariants() == nil {
		t.Fatal("a stale byte past the live entries passed")
	}
}

// TestAscendingLoadTrimsSplitLeaves: in an ascending load every split's
// left half takes no further entry, so its arrays are trimmed to exactly
// its entries; only the last leaf keeps a full page's room.
func TestAscendingLoadTrimsSplitLeaves(t *testing.T) {
	tr := MustNew(smallConfig())
	for k := int64(0); k < 1000; k++ {
		tr.Insert(key(k), tup(k, k))
	}
	var l *leaf
	for n := tr.root; l == nil; {
		if in, ok := n.(*interior); ok {
			n = in.children[0]
		} else {
			l = n.(*leaf)
		}
	}
	for ; l.next != nil; l = l.next {
		if tr.room(l) != l.count {
			t.Fatalf("leaf %d holds %d entries in room for %d", l.id, l.count, tr.room(l))
		}
	}
	if tr.room(l) != tr.Config().LeafCapacity() {
		t.Fatalf("last leaf has room for %d entries, want %d", tr.room(l), tr.Config().LeafCapacity())
	}
	// An insert into a trimmed leaf restores its room.
	tr.Insert(key(0), tup(0, -1))
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := search(tr, key(0)); len(got) != 2 {
		t.Fatalf("search(0) = %d tuples after inserting into a trimmed leaf, want 2", len(got))
	}
}

// TestKeyAtOffset: a tree keyed by a field in the middle of its tuples
// orders, finds and removes by that field, and refuses a tuple that does
// not hold the key it is inserted under.
func TestKeyAtOffset(t *testing.T) {
	if _, err := New(Config{PageSize: 256, KeyWidth: 8, TupleWidth: 16, KeyOffset: 9}); err == nil {
		t.Fatal("a key reaching past the tuple was accepted")
	}
	tr := MustNew(Config{PageSize: 256, KeyWidth: 8, TupleWidth: 16, KeyOffset: 8})
	// mid(i, k) holds i, then key(k) at offset 8.
	mid := func(i, k int64) tuple.Tuple {
		t := make(tuple.Tuple, 16)
		binary.BigEndian.PutUint64(t, uint64(i))
		copy(t[8:], key(k))
		return t
	}
	for i := int64(0); i < 300; i++ {
		k := (i * 7) % 300
		tr.Insert(key(k), mid(i, k))
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	next := int64(0)
	tr.AscendRange(nil, nil, func(k []byte, v tuple.Tuple) bool {
		if !bytes.Equal(k, v[8:]) || !bytes.Equal(k, key(next)) {
			t.Fatalf("walk: key %x, tuple %x; want key %d next", k, v, next)
		}
		next++
		return true
	})
	if next != 300 {
		t.Fatalf("walk saw %d tuples, want 300", next)
	}
	for i := int64(0); i < 300; i += 2 {
		k := (i * 7) % 300
		if !tr.Remove(key(k), mid(i, k)) {
			t.Fatalf("remove of key %d missed", k)
		}
	}
	if tr.NumTuples() != 150 || len(search(tr, key(7))) != 1 || len(search(tr, key(14))) != 0 {
		t.Fatal("removes by a mid-tuple key went wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("inserting a tuple under a key it does not hold did not panic")
		}
	}()
	tr.Insert(key(1), mid(1, 2))
}
