// Package avl implements the height-balanced binary (AVL) tree the paper
// evaluates as a main-memory access method (§2).
//
// Keys are order-preserving byte strings (see tuple.Schema.KeyBytes); each
// distinct key holds the list of tuples carrying it. Search and scan
// operations can report every node they visit, which the Table 1
// experiments map onto pages to measure fault rates: an AVL tree has no
// page structure, so without special precautions each of the
// C = log2(|R|) + 0.25 inspected nodes lies on a different page.
package avl

import (
	"bytes"
	"fmt"
	"slices"
	"sync/atomic"

	"mmdb/internal/tuple"
)

// NodeID identifies a tree node for page-placement simulation. IDs are
// assigned in allocation order and are never reused.
type NodeID int64

// VisitFunc observes a node inspection during a search or scan.
type VisitFunc func(NodeID)

type node struct {
	id          NodeID
	key         []byte
	vals        []tuple.Tuple
	left, right *node
	height      int
}

func (n *node) balance() int {
	return height(n.left) - height(n.right)
}

func height(n *node) int {
	if n == nil {
		return 0
	}
	return n.height
}

func (n *node) fix() {
	lh, rh := height(n.left), height(n.right)
	if lh > rh {
		n.height = lh + 1
	} else {
		n.height = rh + 1
	}
}

// Tree is an AVL tree mapping byte-string keys to tuples.
// The zero value is an empty tree. Not safe for concurrent use.
type Tree struct {
	root   *node
	keys   int
	tuples int
	nextID NodeID
	comps  atomic.Int64 // sum of every call's comparison count
}

// Len returns the number of distinct keys.
func (t *Tree) Len() int { return t.keys }

// NumTuples returns the number of stored tuples.
func (t *Tree) NumTuples() int { return t.tuples }

// NumNodes returns the number of allocated nodes (== Len; exposed for the
// page placement model, which sizes S from the node count).
func (t *Tree) NumNodes() int { return t.keys }

// Height returns the tree height (0 for empty).
func (t *Tree) Height() int { return height(t.root) }

// Comparisons returns the total number of key comparisons performed by
// Insert/Remove/Replace/Search/Ascend since construction or the last
// ResetComparisons: the sum of the per-call counts. Each call counts into
// its own local and adds it here once, so concurrent readers never share a
// plain counter.
func (t *Tree) Comparisons() int64 { return t.comps.Load() }

// ResetComparisons zeroes the comparison counter.
func (t *Tree) ResetComparisons() { t.comps.Store(0) }

// Insert adds tup under key. Duplicate keys chain their tuples on one node.
func (t *Tree) Insert(key []byte, tup tuple.Tuple) {
	var comps int64
	t.root = t.insert(t.root, key, tup, &comps)
	t.comps.Add(comps)
	t.tuples++
}

func (t *Tree) insert(n *node, key []byte, tup tuple.Tuple, comps *int64) *node {
	if n == nil {
		t.keys++
		id := t.nextID
		t.nextID++
		return &node{id: id, key: append([]byte(nil), key...), vals: []tuple.Tuple{tup}, height: 1}
	}
	*comps++
	switch c := bytes.Compare(key, n.key); {
	case c < 0:
		n.left = t.insert(n.left, key, tup, comps)
	case c > 0:
		n.right = t.insert(n.right, key, tup, comps)
	default:
		n.vals = append(n.vals, tup)
		return n
	}
	return rebalance(n)
}

// Remove deletes one tuple stored under key equal to tup and reports
// whether there was one. A key whose last tuple goes loses its node.
func (t *Tree) Remove(key []byte, tup tuple.Tuple) bool {
	var comps int64
	var removed bool
	t.root, removed = t.remove(t.root, key, tup, &comps)
	t.comps.Add(comps)
	if removed {
		t.tuples--
	}
	return removed
}

func (t *Tree) remove(n *node, key []byte, tup tuple.Tuple, comps *int64) (*node, bool) {
	if n == nil {
		return nil, false
	}
	*comps++
	var removed bool
	switch c := bytes.Compare(key, n.key); {
	case c < 0:
		n.left, removed = t.remove(n.left, key, tup, comps)
	case c > 0:
		n.right, removed = t.remove(n.right, key, tup, comps)
	default:
		i := slices.IndexFunc(n.vals, func(v tuple.Tuple) bool { return bytes.Equal(v, tup) })
		if i < 0 {
			return n, false
		}
		if len(n.vals) > 1 {
			n.vals = slices.Delete(n.vals, i, i+1)
			return n, true
		}
		t.keys--
		switch {
		case n.left == nil:
			return n.right, true
		case n.right == nil:
			return n.left, true
		}
		// Replace with the in-order successor's payload, then delete the
		// successor from the right subtree.
		succ := n.right
		for succ.left != nil {
			succ = succ.left
		}
		n.key, n.vals = succ.key, succ.vals
		n.right = deleteMin(n.right)
		removed = true
	}
	if !removed {
		return n, false
	}
	return rebalance(n), true
}

func deleteMin(n *node) *node {
	if n.left == nil {
		return n.right
	}
	n.left = deleteMin(n.left)
	return rebalance(n)
}

// Replace swaps one tuple stored under key equal to old for tup, in
// place, and reports whether there was one. tup must carry the same key.
func (t *Tree) Replace(key []byte, old, tup tuple.Tuple) bool {
	vals, _ := t.Search(key, nil) // the node's own slice
	i := slices.IndexFunc(vals, func(v tuple.Tuple) bool { return bytes.Equal(v, old) })
	if i >= 0 {
		vals[i] = tup
	}
	return i >= 0
}

// Clone returns an independent copy of the tree with the same shape and
// node IDs. Stored tuples are shared; the tree never mutates them.
func (t *Tree) Clone() *Tree {
	var clone func(*node) *node
	clone = func(n *node) *node {
		if n == nil {
			return nil
		}
		return &node{id: n.id, key: n.key, vals: slices.Clone(n.vals),
			left: clone(n.left), right: clone(n.right), height: n.height}
	}
	return &Tree{root: clone(t.root), keys: t.keys, tuples: t.tuples, nextID: t.nextID}
}

// Search returns the tuples stored under key, or nil, and the key
// comparisons this call made. Every inspected node is reported to visit
// (which may be nil).
func (t *Tree) Search(key []byte, visit VisitFunc) (vals []tuple.Tuple, comps int64) {
	n := t.root
	for n != nil {
		if visit != nil {
			visit(n.id)
		}
		comps++
		switch c := bytes.Compare(key, n.key); {
		case c < 0:
			n = n.left
		case c > 0:
			n = n.right
		default:
			t.comps.Add(comps)
			return n.vals, comps
		}
	}
	t.comps.Add(comps)
	return nil, comps
}

// Ascend walks keys >= start in order, calling fn with each node's key and
// tuples until fn returns false or the tree is exhausted, and returns the
// key comparisons against start this call made. A nil start walks the
// whole tree. Every touched node is reported to visit.
func (t *Tree) Ascend(start []byte, visit VisitFunc, fn func(key []byte, vals []tuple.Tuple) bool) (comps int64) {
	ascend(t.root, start, visit, fn, &comps)
	t.comps.Add(comps)
	return comps
}

func ascend(n *node, start []byte, visit VisitFunc, fn func([]byte, []tuple.Tuple) bool, comps *int64) bool {
	if n == nil {
		return true
	}
	if visit != nil {
		visit(n.id)
	}
	inRange := true
	if start != nil {
		*comps++
		inRange = bytes.Compare(n.key, start) >= 0
	}
	if inRange {
		if !ascend(n.left, start, visit, fn, comps) {
			return false
		}
		if !fn(n.key, n.vals) {
			return false
		}
		return ascend(n.right, start, visit, fn, comps)
	}
	return ascend(n.right, start, visit, fn, comps)
}

// Min returns the smallest key and its tuples, or nil for an empty tree.
func (t *Tree) Min() ([]byte, []tuple.Tuple) {
	n := t.root
	if n == nil {
		return nil, nil
	}
	for n.left != nil {
		n = n.left
	}
	return n.key, n.vals
}

// CheckInvariants verifies the BST ordering and AVL balance properties.
// It is intended for tests and returns a descriptive error on violation.
func (t *Tree) CheckInvariants() error {
	keys := 0
	_, err := check(t.root, nil, nil, &keys)
	if err != nil {
		return err
	}
	if keys != t.keys {
		return fmt.Errorf("avl: size %d but %d reachable keys", t.keys, keys)
	}
	return nil
}

func check(n *node, lo, hi []byte, keys *int) (int, error) {
	if n == nil {
		return 0, nil
	}
	*keys++
	if lo != nil && bytes.Compare(n.key, lo) <= 0 {
		return 0, fmt.Errorf("avl: key %x not greater than lower bound %x", n.key, lo)
	}
	if hi != nil && bytes.Compare(n.key, hi) >= 0 {
		return 0, fmt.Errorf("avl: key %x not less than upper bound %x", n.key, hi)
	}
	lh, err := check(n.left, lo, n.key, keys)
	if err != nil {
		return 0, err
	}
	rh, err := check(n.right, n.key, hi, keys)
	if err != nil {
		return 0, err
	}
	h := lh + 1
	if rh >= lh {
		h = rh + 1
	}
	if h != n.height {
		return 0, fmt.Errorf("avl: node %x stored height %d, actual %d", n.key, n.height, h)
	}
	if d := lh - rh; d < -1 || d > 1 {
		return 0, fmt.Errorf("avl: node %x unbalanced (left %d, right %d)", n.key, lh, rh)
	}
	return h, nil
}

func rebalance(n *node) *node {
	n.fix()
	switch b := n.balance(); {
	case b > 1:
		if n.left.balance() < 0 {
			n.left = rotateLeft(n.left)
		}
		return rotateRight(n)
	case b < -1:
		if n.right.balance() > 0 {
			n.right = rotateRight(n.right)
		}
		return rotateLeft(n)
	}
	return n
}

func rotateRight(n *node) *node {
	l := n.left
	n.left = l.right
	l.right = n
	n.fix()
	l.fix()
	return l
}

func rotateLeft(n *node) *node {
	r := n.right
	n.right = r.left
	r.left = n
	n.fix()
	r.fix()
	return r
}
