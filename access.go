package mmdb

import (
	"bytes"
	"strings"

	"mmdb/internal/catalog"
	"mmdb/internal/core"
	"mmdb/internal/cost"
	"mmdb/internal/expr"
	"mmdb/internal/heap"
	"mmdb/internal/simio"
	"mmdb/internal/tuple"
)

// accessPath is how a single-table predicate read reaches its rows: a
// charged heap scan in storage order, or a walk of one catalog index over
// an inclusive key range in key order (docs/SQL.md §5.1). Every keyed read —
// SQL WHERE, Select, Lookup, AscendRange — goes through one.
type accessPath struct {
	ix     catalog.Index // nil: heap scan
	lo, hi []byte        // inclusive key bounds; nil is unbounded
	empty  bool          // the bounds admit no key
}

// chooseAccess picks how to read rel's rows satisfying pred, by the §2
// cost model under the database's params. The candidates are the heap
// scan and, for each indexed column the conjunction constrains with =, <,
// <=, > or >=, a probe of its index:
//
//	scan  = pages·IOSeq + rows·leaves·Comp
//	index = (C + est·(leaves+1))·Comp
//
// where C is the index's expected descent comparisons (BTreeComparisons or
// AVLComparisons), est the rows the column's leaves are estimated to keep
// (EstimatedSelectivity·rows), and leaves the predicate's comparison
// leaves — each candidate row is checked against the range's upper bound
// and then against the whole predicate. The column's leaves combine under
// independence, as in EstimatedSelectivity. The index is resident, so a
// probe reads no pages. The cheapest candidate wins; ties go to the scan.
// OR, NOT and != constrain no range, so they keep the scan.
func chooseAccess(rel *catalog.Relation, pred expr.Predicate, params cost.Params) accessPath {
	n := rel.File.NumTuples()
	if pred == nil || n == 0 {
		return accessPath{}
	}
	conjuncts := expr.Conjuncts(pred)
	leaves := float64(predLeaves(pred))
	best := float64(rel.File.NumPages())*float64(params.IOSeq) + float64(n)*leaves*float64(params.Comp)
	var path accessPath
	for _, col := range rel.IndexedColumns() {
		var ranged []*expr.Comparison
		sel := 1.0
		for _, p := range conjuncts {
			if c, ok := p.(*expr.Comparison); ok && c.Col == col && c.Op != expr.Ne {
				ranged = append(ranged, c)
				sel *= (&Pred{rel: rel, inner: c}).EstimatedSelectivity()
			}
		}
		if len(ranged) == 0 {
			continue
		}
		cand, ok := indexRange(rel.Schema(), col, ranged)
		if !ok {
			continue
		}
		cand.ix, _ = rel.Index(col)
		shape := core.AccessParams{R: n}
		descent := shape.BTreeComparisons()
		if cand.ix.Kind() == catalog.AVL {
			descent = shape.AVLComparisons()
		}
		if c := (descent + sel*float64(n)*(leaves+1)) * float64(params.Comp); c < best {
			best, path = c, cand
		}
	}
	return path
}

// indexRange folds one column's range leaves into inclusive key bounds.
// It reports false when a constant has no order-preserving key: float
// keys are raw IEEE bits, and a string constant that is too wide or holds
// NUL cannot be compared bytewise against the NUL-padded column.
func indexRange(schema *tuple.Schema, col int, leaves []*expr.Comparison) (accessPath, bool) {
	var a accessPath
	probe := make(tuple.Tuple, schema.Width())
	for _, c := range leaves {
		if c.Value.Kind == tuple.Float64 || strings.IndexByte(c.Value.S, 0) >= 0 {
			return accessPath{}, false
		}
		if err := schema.Set(probe, col, c.Value); err != nil {
			return accessPath{}, false
		}
		key := append([]byte(nil), schema.KeyBytes(probe, col)...)
		switch c.Op {
		case expr.Eq:
			a.raiseLo(key)
			a.lowerHi(key)
		case expr.Ge:
			a.raiseLo(key)
		case expr.Le:
			a.lowerHi(key)
		case expr.Gt:
			a.empty = a.empty || !stepKey(key, +1)
			a.raiseLo(key)
		case expr.Lt:
			a.empty = a.empty || !stepKey(key, -1)
			a.lowerHi(key)
		}
	}
	if a.lo != nil && a.hi != nil && bytes.Compare(a.lo, a.hi) > 0 {
		a.empty = true
	}
	return a, true
}

func (a *accessPath) raiseLo(k []byte) {
	if a.lo == nil || bytes.Compare(k, a.lo) > 0 {
		a.lo = k
	}
}

func (a *accessPath) lowerHi(k []byte) {
	if a.hi == nil || bytes.Compare(k, a.hi) < 0 {
		a.hi = k
	}
}

// stepKey moves a fixed-width key to its successor (+1) or predecessor
// (-1) in byte order, in place, turning an exclusive bound inclusive. It
// reports false when no such key exists (the bound was the extreme key).
func stepKey(k []byte, dir int) bool {
	for i := len(k) - 1; i >= 0; i-- {
		if dir > 0 {
			k[i]++
			if k[i] != 0 {
				return true
			}
		} else {
			k[i]--
			if k[i] != 0xff {
				return true
			}
		}
	}
	return false
}

// read streams the rows satisfying pred to fn until it returns false.
// A scan charges its page reads on file and pred's leaves per row; an
// index walk charges, in comparisons only, the tree's own comparisons for
// this call, one per row checked against the upper bound, and pred's
// leaves per candidate row — a pure function of the statement and the
// index contents.
func (a accessPath) read(file *heap.File, pred expr.Predicate, clock *cost.Clock, fn func(tuple.Tuple) bool) error {
	keep := filter(pred, clock, fn)
	switch {
	case a.ix == nil:
		return file.Scan(simio.Seq, keep)
	case a.empty:
		return nil
	case a.lo != nil && bytes.Equal(a.lo, a.hi):
		tups, comps := a.ix.Search(a.lo)
		clock.Comps(comps)
		for _, t := range tups {
			if !keep(t) {
				break
			}
		}
		return nil
	default:
		var checked int64
		comps := a.ix.Ascend(a.lo, func(key []byte, t tuple.Tuple) bool {
			if a.hi != nil {
				checked++
				if bytes.Compare(key, a.hi) > 0 {
					return false
				}
			}
			return keep(t)
		})
		clock.Comps(comps + checked)
		return nil
	}
}

// filter passes fn the rows satisfying pred, charging pred's leaves per
// row checked. A nil pred passes every row uncharged.
func filter(pred expr.Predicate, clock *cost.Clock, fn func(tuple.Tuple) bool) func(tuple.Tuple) bool {
	if pred == nil {
		return fn
	}
	leaves := predLeaves(pred)
	return func(t tuple.Tuple) bool {
		clock.Comps(leaves)
		if !pred.Eval(t) {
			return true
		}
		return fn(t)
	}
}

// predLeaves counts a predicate's comparison leaves — the per-tuple
// comparison charge of evaluating it (min 1).
func predLeaves(p expr.Predicate) int64 {
	if p == nil {
		return 0
	}
	n := int64(0)
	p.Walk(func(*expr.Comparison) { n++ })
	if n == 0 {
		n = 1
	}
	return n
}
