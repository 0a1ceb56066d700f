// Package btree implements the page-structured B+-tree of §2 of the paper:
// the standard disk access method it compares the AVL tree against.
//
// Geometry follows the paper exactly: with page size P, key width K and
// pointer width B, an interior node holds up to P/(K+B) children and a
// leaf holds up to P/L tuples of width L. A leaf is stored as such a
// page: its tuples packed into one byte array, each keyed by the K bytes
// at Config.KeyOffset within it, so an entry costs L bytes and no
// allocation of its own. The array has room for P/L tuples, except that a
// split trims the half that takes no new entry to exactly the tuples it
// holds (see insert). Nodes carry page IDs so the Table 1 experiments can
// replay traversals through a buffer pool; Yao's observation that nodes
// average 69% full emerges from random insertion and is also available
// directly as a bulk-load fill factor.
package btree

import (
	"bytes"
	"fmt"
	"slices"
	"sync/atomic"

	"mmdb/internal/page"
	"mmdb/internal/tuple"
)

// NodeID identifies a tree page for buffer-pool simulation.
type NodeID int64

// VisitFunc observes a page inspection during a search or scan.
type VisitFunc func(NodeID)

// YaoFill is the average node occupancy of a B-tree under random
// insertions [YAO78], used as the default bulk-load fill factor.
const YaoFill = 0.69

// Config fixes the tree geometry.
type Config struct {
	PageSize     int // the paper's P (bytes)
	KeyWidth     int // the paper's K (bytes)
	PointerWidth int // the paper's B (bytes); 0 means 4
	TupleWidth   int // the paper's L (bytes)
	KeyOffset    int // where each tuple holds its key (bytes)
}

func (c Config) withDefaults() Config {
	if c.PageSize == 0 {
		c.PageSize = page.DefaultSize
	}
	if c.PointerWidth == 0 {
		c.PointerWidth = 4
	}
	return c
}

// Fanout returns the maximum number of children of an interior node.
func (c Config) Fanout() int {
	return c.PageSize / (c.KeyWidth + c.PointerWidth)
}

// LeafCapacity returns the maximum number of tuples per leaf.
func (c Config) LeafCapacity() int {
	return c.PageSize / c.TupleWidth
}

func (c Config) validate() error {
	if c.KeyWidth <= 0 || c.TupleWidth <= 0 {
		return fmt.Errorf("btree: KeyWidth and TupleWidth must be positive: %+v", c)
	}
	if c.KeyOffset < 0 || c.KeyOffset+c.KeyWidth > c.TupleWidth {
		return fmt.Errorf("btree: key at bytes [%d,%d) lies outside a %d-byte tuple",
			c.KeyOffset, c.KeyOffset+c.KeyWidth, c.TupleWidth)
	}
	if c.Fanout() < 3 {
		return fmt.Errorf("btree: fanout %d too small (page %d, key %d, pointer %d)",
			c.Fanout(), c.PageSize, c.KeyWidth, c.PointerWidth)
	}
	if c.LeafCapacity() < 1 {
		return fmt.Errorf("btree: tuple width %d exceeds page size %d", c.TupleWidth, c.PageSize)
	}
	return nil
}

type treeNode interface {
	nodeID() NodeID
}

// leaf is one leaf page. Entry i's tuple is tups[i*L:(i+1)*L]. The array
// has room for at least count and at most LeafCapacity tuples; the first
// count are live, in key order, and the rest are zero.
type leaf struct {
	id    NodeID
	count int
	tups  []byte
	next  *leaf
}

func (l *leaf) nodeID() NodeID { return l.id }

type interior struct {
	id       NodeID
	keys     [][]byte // keys[i] = smallest key reachable under children[i+1]
	children []treeNode
}

func (n *interior) nodeID() NodeID { return n.id }

// Tree is a B+-tree over fixed-width tuples keyed by an order-preserving
// byte string each tuple holds at Config.KeyOffset. Duplicate keys are
// allowed. The tree stores copies of the tuples it is given. Concurrent
// readers are safe; a mutation must run alone.
type Tree struct {
	cfg       Config
	root      treeNode
	height    int // levels including the leaf level; 0 when empty
	tuples    int
	leaves    int
	interiors int
	nextPage  NodeID
	comps     atomic.Int64 // sum of every call's comparison count
}

// New creates an empty tree.
func New(cfg Config) (*Tree, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Tree{cfg: cfg}, nil
}

// MustNew is New that panics on error.
func MustNew(cfg Config) *Tree {
	t, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return t
}

// Config returns the tree geometry.
func (t *Tree) Config() Config { return t.cfg }

// NumTuples returns the number of stored tuples.
func (t *Tree) NumTuples() int { return t.tuples }

// NumLeaves returns the number of leaf pages.
func (t *Tree) NumLeaves() int { return t.leaves }

// NumPages returns the total number of pages (leaves + interior), the
// paper's S'.
func (t *Tree) NumPages() int { return t.leaves + t.interiors }

// Height returns the number of levels, counting the leaf level.
func (t *Tree) Height() int { return t.height }

// Comparisons returns the number of key comparisons since construction or
// the last ResetComparisons: the sum of the per-call counts. Each call
// counts into its own local and adds it here once, so concurrent readers
// never share a plain counter.
func (t *Tree) Comparisons() int64 { return t.comps.Load() }

// ResetComparisons zeroes the comparison counter.
func (t *Tree) ResetComparisons() { t.comps.Store(0) }

// newLeaf allocates an empty leaf with room for n tuples.
func (t *Tree) newLeaf(n int) *leaf {
	t.leaves++
	id := t.nextPage
	t.nextPage++
	return &leaf{id: id, tups: make([]byte, n*t.cfg.TupleWidth)}
}

// room returns how many tuples l's array has room for.
func (t *Tree) room(l *leaf) int { return len(l.tups) / t.cfg.TupleWidth }

// resize gives l an array with room for exactly n >= l.count tuples.
func (t *Tree) resize(l *leaf, n int) {
	tups := make([]byte, n*t.cfg.TupleWidth)
	copy(tups, l.tups[:l.count*t.cfg.TupleWidth])
	l.tups = tups
}

// keyOf returns a view of tup's key.
func (t *Tree) keyOf(tup []byte) []byte {
	o := t.cfg.KeyOffset
	return tup[o : o+t.cfg.KeyWidth : o+t.cfg.KeyWidth]
}

// key returns a view of entry i's key in l.
func (t *Tree) key(l *leaf, i int) []byte { return t.keyOf(t.tup(l, i)) }

// tup returns a view of entry i's tuple in l.
func (t *Tree) tup(l *leaf, i int) tuple.Tuple {
	w := t.cfg.TupleWidth
	return tuple.Tuple(l.tups[i*w : (i+1)*w : (i+1)*w])
}

// checkTuple panics unless tup is a tuple of the tree's width holding
// key: a caller bug that would otherwise misplace the entry.
func (t *Tree) checkTuple(key []byte, tup tuple.Tuple) {
	if len(tup) != t.cfg.TupleWidth {
		panic(fmt.Sprintf("btree: tuple width %d, configured %d", len(tup), t.cfg.TupleWidth))
	}
	if !bytes.Equal(key, t.keyOf(tup)) {
		panic(fmt.Sprintf("btree: key %x, but the tuple holds %x", key, t.keyOf(tup)))
	}
}

// put inserts tup as entry i of l, which has a free slot.
func (t *Tree) put(l *leaf, i int, tup tuple.Tuple) {
	w := t.cfg.TupleWidth
	copy(l.tups[(i+1)*w:], l.tups[i*w:l.count*w])
	copy(l.tups[i*w:], tup)
	l.count++
}

// del removes entry i of l, zeroing the slot it frees.
func (t *Tree) del(l *leaf, i int) {
	w := t.cfg.TupleWidth
	copy(l.tups[i*w:], l.tups[(i+1)*w:l.count*w])
	l.count--
	clear(l.tups[l.count*w : (l.count+1)*w])
}

// moveTail moves entries [from, count) of l to the empty leaf r.
func (t *Tree) moveTail(l *leaf, from int, r *leaf) {
	w := t.cfg.TupleWidth
	copy(r.tups, l.tups[from*w:l.count*w])
	clear(l.tups[from*w : l.count*w])
	r.count = l.count - from
	l.count = from
}

// searchLeaf is searchKeys over l's entries.
func (t *Tree) searchLeaf(l *leaf, key []byte, lower bool, comps *int64) int {
	lo, hi := 0, l.count
	for lo < hi {
		mid := (lo + hi) / 2
		c := compare(t.key(l, mid), key, comps)
		if c < 0 || (!lower && c == 0) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func (t *Tree) newInterior() *interior {
	t.interiors++
	id := t.nextPage
	t.nextPage++
	return &interior{id: id}
}

// compare orders two keys, counting the comparison into the caller's n.
func compare(a, b []byte, n *int64) int {
	*n++
	return bytes.Compare(a, b)
}

// Insert adds a copy of tup, which must hold key at Config.KeyOffset.
func (t *Tree) Insert(key []byte, tup tuple.Tuple) {
	t.checkTuple(key, tup)
	if t.root == nil {
		l := t.newLeaf(t.cfg.LeafCapacity())
		t.put(l, 0, tup)
		t.root = l
		t.height = 1
		t.tuples = 1
		return
	}
	var n int64
	split, sepKey := t.insert(t.root, key, tup, &n)
	t.comps.Add(n)
	t.tuples++
	if split != nil {
		r := t.newInterior()
		r.keys = [][]byte{sepKey}
		r.children = []treeNode{t.root, split}
		t.root = r
		t.height++
	}
}

// insert descends to the leaf, inserting; on split it returns the new right
// sibling and the separator key (smallest key of the right sibling).
func (t *Tree) insert(n treeNode, key []byte, tup tuple.Tuple, comps *int64) (treeNode, []byte) {
	switch n := n.(type) {
	case *leaf:
		i := t.searchLeaf(n, key, false, comps)
		c := t.cfg.LeafCapacity()
		if n.count < c {
			if n.count == t.room(n) {
				t.resize(n, c)
			}
			t.put(n, i, tup)
			return nil, nil
		}
		// A full leaf splits before the insert, at the point splitting
		// its count+1 entries after the insert would pick, so the tree
		// takes the same shape: the left leaf keeps the first mid. The
		// half the new entry does not join is trimmed to its entries: in
		// an ascending (or descending) load no entry ever joins it again,
		// and a full-page array would sit half empty.
		mid := (n.count + 1) / 2
		var right *leaf
		if i < mid {
			right = t.newLeaf(n.count - (mid - 1))
			t.moveTail(n, mid-1, right)
			t.put(n, i, tup)
		} else {
			right = t.newLeaf(c)
			t.moveTail(n, mid, right)
			t.put(right, i-mid, tup)
			t.resize(n, mid)
		}
		right.next = n.next
		n.next = right
		return right, slices.Clone(t.key(right, 0))
	case *interior:
		ci := childIndex(n, key, comps)
		split, sepKey := t.insert(n.children[ci], key, tup, comps)
		if split == nil {
			return nil, nil
		}
		n.keys = append(n.keys, nil)
		copy(n.keys[ci+1:], n.keys[ci:])
		n.keys[ci] = sepKey
		n.children = append(n.children, nil)
		copy(n.children[ci+2:], n.children[ci+1:])
		n.children[ci+1] = split
		if len(n.children) <= t.cfg.Fanout() {
			return nil, nil
		}
		mid := len(n.children) / 2
		right := t.newInterior()
		up := n.keys[mid-1]
		right.keys = append(right.keys, n.keys[mid:]...)
		right.children = append(right.children, n.children[mid:]...)
		n.keys = n.keys[: mid-1 : mid-1]
		n.children = n.children[:mid:mid]
		return right, up
	default:
		panic("btree: unknown node type")
	}
}

// searchKeys binary-searches keys for key. With lower=true it returns the
// first index i with keys[i] >= key; otherwise the first i with
// keys[i] > key. Comparisons are counted into comps.
func searchKeys(keys [][]byte, key []byte, lower bool, comps *int64) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		c := compare(keys[mid], key, comps)
		if c < 0 || (!lower && c == 0) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// childIndex returns which child of n covers key. Keys equal to a separator
// descend left; searches compensate by scanning forward along the leaf
// chain, so duplicates that straddle a split are still found.
func childIndex(n *interior, key []byte, comps *int64) int {
	return searchKeys(n.keys, key, true, comps)
}

// Search returns copies of all tuples stored under key, which stay valid
// across later mutations, and the key comparisons this call made (descent
// plus leaf). Each inspected page is reported to visit (which may be nil).
func (t *Tree) Search(key []byte, visit VisitFunc) (out []tuple.Tuple, comps int64) {
	defer func() { t.comps.Add(comps) }()
	if t.root == nil {
		return nil, 0
	}
	n := t.root
	for {
		if visit != nil {
			visit(n.nodeID())
		}
		in, ok := n.(*interior)
		if !ok {
			break
		}
		n = in.children[childIndex(in, key, &comps)]
	}
	l := n.(*leaf)
	i := t.searchLeaf(l, key, true, &comps)
	var buf []byte
scan:
	for {
		for ; i < l.count; i++ {
			if compare(t.key(l, i), key, &comps) != 0 {
				break scan
			}
			buf = append(buf, t.tup(l, i)...)
		}
		if l.next == nil {
			break
		}
		l = l.next
		if visit != nil {
			visit(l.id)
		}
		i = 0
	}
	w := t.cfg.TupleWidth
	for j := 0; j < len(buf); j += w {
		out = append(out, tuple.Tuple(buf[j:j+w:j+w]))
	}
	return out, comps
}

// AscendRange walks tuples with key >= start in key order, calling fn until
// it returns false, and returns the key comparisons its descent to start
// made. A nil start walks from the smallest key. Each touched page
// (descent path plus every leaf visited) is reported to visit. The key
// and tuple passed to fn are views into the leaf, valid only during the
// call, as a heap scan's are; Clone to retain.
func (t *Tree) AscendRange(start []byte, visit VisitFunc, fn func(key []byte, tup tuple.Tuple) bool) (comps int64) {
	defer func() { t.comps.Add(comps) }()
	if t.root == nil {
		return 0
	}
	n := t.root
	for {
		if visit != nil {
			visit(n.nodeID())
		}
		in, ok := n.(*interior)
		if !ok {
			break
		}
		if start == nil {
			n = in.children[0]
		} else {
			n = in.children[childIndex(in, start, &comps)]
		}
	}
	l := n.(*leaf)
	i := 0
	if start != nil {
		i = t.searchLeaf(l, start, true, &comps)
	}
	for {
		for ; i < l.count; i++ {
			if !fn(t.key(l, i), t.tup(l, i)) {
				return comps
			}
		}
		if l.next == nil {
			return comps
		}
		l = l.next
		if visit != nil {
			visit(l.id)
		}
		i = 0
	}
}

// step is one level of a root-to-leaf path: an interior node and the
// child the path takes.
type step struct {
	n  *interior
	ci int
}

// find locates an entry under key whose tuple equals tup, returning the
// interior path to its leaf, the leaf and the slot. Equal keys may
// straddle leaves, so it walks the leaf chain, advancing the path along.
// Key comparisons are counted into comps.
func (t *Tree) find(key []byte, tup tuple.Tuple, comps *int64) (path []step, l *leaf, i int, ok bool) {
	if t.root == nil {
		return nil, nil, 0, false
	}
	n := t.root
	for {
		in, ok := n.(*interior)
		if !ok {
			break
		}
		ci := childIndex(in, key, comps)
		path = append(path, step{in, ci})
		n = in.children[ci]
	}
	l = n.(*leaf)
	i = t.searchLeaf(l, key, true, comps)
	for {
		for ; i < l.count; i++ {
			if compare(t.key(l, i), key, comps) != 0 {
				return nil, nil, 0, false
			}
			if bytes.Equal(t.tup(l, i), tup) {
				return path, l, i, true
			}
		}
		if path, l = nextLeaf(path); l == nil {
			return nil, nil, 0, false
		}
		i = 0
	}
}

// nextLeaf moves path to the leaf after the one it leads to and returns
// that leaf, or nil after the last leaf.
func nextLeaf(path []step) ([]step, *leaf) {
	d := len(path) - 1
	for d >= 0 && path[d].ci+1 >= len(path[d].n.children) {
		d--
	}
	if d < 0 {
		return path, nil
	}
	path[d].ci++
	path = path[:d+1]
	n := path[d].n.children[path[d].ci]
	for {
		in, ok := n.(*interior)
		if !ok {
			return path, n.(*leaf)
		}
		path = append(path, step{in, 0})
		n = in.children[0]
	}
}

// Remove deletes one entry stored under key whose tuple equals tup and
// reports whether there was one. A leaf it empties is unlinked from the
// leaf chain and its parent, interior nodes left childless go with it,
// and a root left with one child is replaced by that child, so churn
// leaks no pages. Other leaves may underflow; search is unaffected.
func (t *Tree) Remove(key []byte, tup tuple.Tuple) bool {
	var comps int64
	defer func() { t.comps.Add(comps) }()
	path, l, i, ok := t.find(key, tup, &comps)
	if !ok {
		return false
	}
	t.del(l, i)
	t.tuples--
	if l.count == 0 {
		t.unlink(path, l)
	}
	return true
}

// Replace overwrites the tuple of one entry under key equal to old with a
// copy of tup, in place, and reports whether there was one. tup must hold
// the same key.
func (t *Tree) Replace(key []byte, old, tup tuple.Tuple) bool {
	t.checkTuple(key, tup)
	var comps int64
	defer func() { t.comps.Add(comps) }()
	_, l, i, ok := t.find(key, old, &comps)
	if ok {
		copy(t.tup(l, i), tup)
	}
	return ok
}

// unlink removes the empty leaf l, reached by path, from the tree.
func (t *Tree) unlink(path []step, l *leaf) {
	t.leaves--
	for d := len(path) - 1; d >= 0; d-- {
		if ci := path[d].ci; ci > 0 {
			prev := path[d].n.children[ci-1]
			for {
				in, ok := prev.(*interior)
				if !ok {
					break
				}
				prev = in.children[len(in.children)-1]
			}
			prev.(*leaf).next = l.next
			break
		}
	}
	for d := len(path) - 1; ; d-- {
		if d < 0 {
			t.root, t.height = nil, 0
			return
		}
		in, ci := path[d].n, path[d].ci
		in.children = slices.Delete(in.children, ci, ci+1)
		if len(in.keys) > 0 {
			// The separator left of the child goes; the first child's
			// right separator goes instead.
			k := max(ci-1, 0)
			in.keys = slices.Delete(in.keys, k, k+1)
		}
		if len(in.children) > 0 {
			break
		}
		t.interiors--
	}
	for {
		in, ok := t.root.(*interior)
		if !ok || len(in.children) > 1 {
			return
		}
		t.root = in.children[0]
		t.interiors--
		t.height--
	}
}

// Clone returns an independent copy of the tree with the same shape and
// page IDs.
func (t *Tree) Clone() *Tree {
	c := &Tree{cfg: t.cfg, height: t.height, tuples: t.tuples, leaves: t.leaves,
		interiors: t.interiors, nextPage: t.nextPage}
	var prev *leaf
	var clone func(treeNode) treeNode
	clone = func(n treeNode) treeNode {
		if l, ok := n.(*leaf); ok {
			cl := &leaf{id: l.id, count: l.count, tups: slices.Clone(l.tups)}
			if prev != nil {
				prev.next = cl
			}
			prev = cl
			return cl
		}
		in := n.(*interior)
		ci := &interior{id: in.id, keys: slices.Clone(in.keys), children: make([]treeNode, len(in.children))}
		for i, ch := range in.children {
			ci.children[i] = clone(ch)
		}
		return ci
	}
	if t.root != nil {
		c.root = clone(t.root)
	}
	return c
}

// BulkLoad builds a tree from tuples already sorted by key, packing leaves
// and interior nodes to the given fill factor (0 means YaoFill). keys[i]
// must be the key tups[i] holds. It replaces the tree contents.
func (t *Tree) BulkLoad(keys [][]byte, tups []tuple.Tuple, fill float64) error {
	if len(keys) != len(tups) {
		return fmt.Errorf("btree: %d keys but %d tuples", len(keys), len(tups))
	}
	if fill == 0 {
		fill = YaoFill
	}
	if fill <= 0 || fill > 1 {
		return fmt.Errorf("btree: fill factor %g out of (0,1]", fill)
	}
	for i := range keys {
		if len(tups[i]) != t.cfg.TupleWidth || !bytes.Equal(keys[i], t.keyOf(tups[i])) {
			return fmt.Errorf("btree: bulk load entry %d is not a %d-byte tuple holding key %x", i, t.cfg.TupleWidth, keys[i])
		}
		if i > 0 && bytes.Compare(keys[i-1], keys[i]) > 0 {
			return fmt.Errorf("btree: bulk load input not sorted at %d", i)
		}
	}
	t.root, t.height, t.tuples, t.leaves, t.interiors, t.nextPage = nil, 0, 0, 0, 0, 0
	if len(keys) == 0 {
		return nil
	}
	perLeaf := int(float64(t.cfg.LeafCapacity())*fill + 0.5)
	if perLeaf < 1 {
		perLeaf = 1
	}
	var level []treeNode
	var seps [][]byte // smallest key under each node in level
	var prev *leaf
	for i := 0; i < len(keys); i += perLeaf {
		j := i + perLeaf
		if j > len(keys) {
			j = len(keys)
		}
		l := t.newLeaf(t.cfg.LeafCapacity())
		for k := i; k < j; k++ {
			t.put(l, k-i, tups[k])
		}
		if prev != nil {
			prev.next = l
		}
		prev = l
		level = append(level, l)
		seps = append(seps, slices.Clone(keys[i]))
	}
	t.tuples = len(keys)
	t.height = 1
	perNode := int(float64(t.cfg.Fanout())*fill + 0.5)
	if perNode < 2 {
		perNode = 2
	}
	for len(level) > 1 {
		var up []treeNode
		var upSeps [][]byte
		for i := 0; i < len(level); i += perNode {
			j := i + perNode
			if j > len(level) {
				j = len(level)
			}
			if j-i == 1 && len(up) > 0 {
				// Avoid a one-child node: fold into the previous sibling.
				last := up[len(up)-1].(*interior)
				last.keys = append(last.keys, seps[i])
				last.children = append(last.children, level[i])
				continue
			}
			n := t.newInterior()
			n.children = append(n.children, level[i:j]...)
			n.keys = append(n.keys, seps[i+1:j]...)
			up = append(up, n)
			upSeps = append(upSeps, seps[i])
		}
		level, seps = up, upSeps
		t.height++
	}
	t.root = level[0]
	return nil
}

// CheckInvariants verifies ordering, uniform leaf depth, separator bounds,
// the leaf chain, that no empty leaf stays linked, that every leaf's
// array has room for a whole number of tuples, between its count and
// LeafCapacity, with the unused slots zero, and that the page counts
// match the reachable nodes. Intended for tests.
func (t *Tree) CheckInvariants() error {
	if t.root == nil {
		if t.tuples != 0 || t.height != 0 {
			return fmt.Errorf("btree: empty root but tuples=%d height=%d", t.tuples, t.height)
		}
		return nil
	}
	depth := -1
	count, leaves, interiors := 0, 0, 0
	var lastLeaf *leaf
	var lastKey []byte
	var walk func(n treeNode, d int, lo, hi []byte) error
	walk = func(n treeNode, d int, lo, hi []byte) error {
		switch n := n.(type) {
		case *leaf:
			if depth == -1 {
				depth = d
			} else if depth != d {
				return fmt.Errorf("btree: leaf at depth %d, expected %d", d, depth)
			}
			leaves++
			c, r := t.cfg.LeafCapacity(), t.room(n)
			if len(n.tups) != r*t.cfg.TupleWidth {
				return fmt.Errorf("btree: leaf %d array holds %d bytes, not whole %d-byte tuples",
					n.id, len(n.tups), t.cfg.TupleWidth)
			}
			if n.count == 0 {
				return fmt.Errorf("btree: empty leaf %d still linked", n.id)
			}
			if n.count > r || r > c {
				return fmt.Errorf("btree: leaf %d holds %d entries in room for %d, capacity %d", n.id, n.count, r, c)
			}
			if slices.ContainsFunc(n.tups[n.count*t.cfg.TupleWidth:], func(b byte) bool { return b != 0 }) {
				return fmt.Errorf("btree: leaf %d has a stale entry past its %d live ones", n.id, n.count)
			}
			for i := 0; i < n.count; i++ {
				k := t.key(n, i)
				if lastKey != nil && bytes.Compare(lastKey, k) > 0 {
					return fmt.Errorf("btree: keys out of order: %x then %x", lastKey, k)
				}
				if lo != nil && bytes.Compare(k, lo) < 0 {
					return fmt.Errorf("btree: key %x below separator %x", k, lo)
				}
				if hi != nil && bytes.Compare(k, hi) > 0 {
					return fmt.Errorf("btree: key %x above separator %x", k, hi)
				}
				lastKey = k
				count++
			}
			if lastLeaf != nil && lastLeaf.next != n {
				return fmt.Errorf("btree: broken leaf chain")
			}
			lastLeaf = n
			return nil
		case *interior:
			interiors++
			if len(n.children) != len(n.keys)+1 {
				return fmt.Errorf("btree: interior with %d children, %d keys", len(n.children), len(n.keys))
			}
			if len(n.children) > t.cfg.Fanout() {
				return fmt.Errorf("btree: overfull interior (%d > %d)", len(n.children), t.cfg.Fanout())
			}
			for i, c := range n.children {
				clo, chi := lo, hi
				if i > 0 {
					clo = n.keys[i-1]
				}
				if i < len(n.keys) {
					chi = n.keys[i]
				}
				if err := walk(c, d+1, clo, chi); err != nil {
					return err
				}
			}
			return nil
		default:
			return fmt.Errorf("btree: unknown node type %T", n)
		}
	}
	if err := walk(t.root, 1, nil, nil); err != nil {
		return err
	}
	if depth != t.height {
		return fmt.Errorf("btree: stored height %d, actual %d", t.height, depth)
	}
	if count != t.tuples {
		return fmt.Errorf("btree: stored tuples %d, reachable %d", t.tuples, count)
	}
	if leaves != t.leaves || interiors != t.interiors {
		return fmt.Errorf("btree: stored %d leaves and %d interiors, reachable %d and %d",
			t.leaves, t.interiors, leaves, interiors)
	}
	if lastLeaf != nil && lastLeaf.next != nil {
		return fmt.Errorf("btree: leaf chain extends past last leaf")
	}
	return nil
}
