package mmdb

import (
	"bytes"
	"context"
	"fmt"

	"mmdb/internal/catalog"
	"mmdb/internal/cost"
	"mmdb/internal/expr"
	"mmdb/internal/lock"
	"mmdb/internal/simio"
)

// IndexKind selects an access method (§2).
type IndexKind = catalog.IndexKind

// Access methods.
const (
	BTree = catalog.BTree
	AVL   = catalog.AVL
)

// Relation is a handle on a cataloged table.
type Relation struct {
	db  *Database
	rel *catalog.Relation
	// applier marks the replication applier's handle: its exclusive
	// intents carry applyContext, so they pass a replica's write guard.
	applier bool
}

// Name returns the relation name.
func (r *Relation) Name() string { return r.rel.Name }

// withIntent runs fn holding a one-shot relation-level intent: Shared for
// reads, Exclusive for mutations and index builds. This is what lets
// loads and point operations interleave safely with admitted queries —
// a query's shared intent holds off a concurrent Rewrite, and vice versa.
func (r *Relation) withIntent(mode lock.Mode, fn func() error) error {
	ctx := context.Background()
	if r.applier {
		ctx = applyContext(r.db)
	}
	unlock, err := r.db.lockRelations(ctx, mode, r.Name())
	if err != nil {
		return err
	}
	defer unlock()
	return fn()
}

// Schema returns the relation schema.
func (r *Relation) Schema() *Schema { return r.rel.Schema() }

// NumTuples returns the cardinality.
func (r *Relation) NumTuples() int64 { return r.rel.File.NumTuples() }

// NumPages returns the paper's |R|.
func (r *Relation) NumPages() int { return r.rel.File.NumPages() }

// Insert encodes and appends one row, maintaining any indexes. Loading is
// uncharged on the virtual clock, matching the paper's convention of
// excluding initial relation reads from experiment costs.
func (r *Relation) Insert(values ...Value) error {
	t, err := r.Schema().Encode(values...)
	if err != nil {
		return err
	}
	return r.InsertTuple(t)
}

// InsertTuple appends an encoded row, maintaining any indexes.
func (r *Relation) InsertTuple(t Tuple) error {
	return r.withIntent(lock.Exclusive, func() error {
		if err := r.rel.File.Append(t, simio.Uncharged); err != nil {
			return err
		}
		r.indexRows([]Tuple{t})
		// Ship inside the intent so replication order is the primary's
		// serialization order (likewise in every mutation below). A
		// refused ship — this node was demoted mid-call — fails the
		// statement: the write is not acknowledged.
		return r.db.shipOp(r.applier, shipOp{kind: opInsert, rel: r.Name(), tuple: t.Clone()})
	})
}

// insertRows appends encoded rows, maintains the indexes and flushes as
// one unit: one exclusive intent and one opInsertBatch record, so a
// promotion fence either refuses the statement before any row lands or
// lets all of it through. The rows become the record's and must not be
// changed afterwards.
func (r *Relation) insertRows(rows []Tuple) error {
	return r.withIntent(lock.Exclusive, func() error {
		for _, t := range rows {
			if err := r.rel.File.Append(t, simio.Uncharged); err != nil {
				return err
			}
		}
		if err := r.rel.File.Flush(simio.Uncharged); err != nil {
			return err
		}
		r.indexRows(rows)
		return r.db.shipOp(r.applier, shipOp{kind: opInsertBatch, rel: r.Name(), tuples: rows})
	})
}

// indexRows adds rows to every index on the relation, in order. The
// indexes keep their own copies. The caller holds the exclusive intent.
func (r *Relation) indexRows(rows []Tuple) {
	schema := r.Schema()
	for _, col := range r.rel.IndexedColumns() {
		ix, _ := r.rel.Index(col)
		for _, t := range rows {
			ix.Insert(schema.KeyBytes(t, col), t)
		}
	}
}

// Flush writes any buffered partial page.
func (r *Relation) Flush() error {
	return r.withIntent(lock.Exclusive, func() error {
		if err := r.rel.File.Flush(simio.Uncharged); err != nil {
			return err
		}
		return r.db.shipOp(r.applier, shipOp{kind: opFlush, rel: r.Name()})
	})
}

// Scan iterates all tuples in storage order until fn returns false. The
// scan charges sequential IO per page, like the paper's case-2 access.
func (r *Relation) Scan(fn func(Tuple) bool) error {
	return r.withIntent(lock.Shared, func() error {
		return r.rel.File.Scan(simio.Seq, fn)
	})
}

// CreateIndex builds an index on the named column.
func (r *Relation) CreateIndex(column string, kind IndexKind) error {
	col := r.Schema().FieldIndex(column)
	if col < 0 {
		return fmt.Errorf("mmdb: relation %q has no column %q", r.Name(), column)
	}
	return r.withIntent(lock.Exclusive, func() error {
		if _, err := r.db.cat.BuildIndex(r.Name(), col, kind); err != nil {
			return err
		}
		return r.db.shipOp(r.applier, shipOp{kind: opIndex, rel: r.Name(), column: column, ixKind: kind})
	})
}

// Lookup returns copies of all rows whose column equals v, through the
// same access path as SQL's `WHERE column = v`: an index probe charging
// comparisons per §2's cost model when the column is indexed (and the
// probe is cheaper), else a charged sequential scan.
func (r *Relation) Lookup(column string, v Value) ([]Tuple, error) {
	eq, err := r.leaf(column, Eq, v)
	if err != nil {
		return nil, err
	}
	var out []Tuple
	err = r.readWhere(eq, func(t Tuple) bool {
		out = append(out, t.Clone())
		return true
	})
	return out, err
}

// leaf builds the comparison column <op> v on this relation.
func (r *Relation) leaf(column string, op CompareOp, v Value) (*expr.Comparison, error) {
	col := r.Schema().FieldIndex(column)
	if col < 0 {
		return nil, fmt.Errorf("mmdb: relation %q has no column %q", r.Name(), column)
	}
	return expr.NewComparison(r.Schema(), col, op, v)
}

// Delete removes every row whose column equals v, returning the count:
// DeleteWhere on the leaf `column = v`.
func (r *Relation) Delete(column string, v Value) (int64, error) {
	eq, err := r.leaf(column, Eq, v)
	if err != nil {
		return 0, err
	}
	return r.DeleteWhere(&Pred{rel: r.rel, inner: eq})
}

// DeleteWhere removes every row matching the predicate, returning the
// count. A nil predicate removes every row. The work is proportional to
// the rows removed and the heap pages from the first one touched (see
// rewrite), and uncharged, like all maintenance.
func (r *Relation) DeleteWhere(p *Pred) (int64, error) {
	var inner expr.Predicate
	if p != nil {
		if err := p.Err(); err != nil {
			return 0, err
		}
		if p.rel != r.rel {
			return 0, fmt.Errorf("mmdb: predicate over %q used on %q", p.rel.Name, r.Name())
		}
		inner = p.inner
	}
	var removed int64
	err := r.withIntent(lock.Exclusive, func() error {
		n, err := r.rewrite(inner, func(Tuple) Tuple { return nil })
		if err != nil {
			return err
		}
		if err := r.db.shipOp(r.applier, shipOp{kind: opDeleteWhere, rel: r.Name(), pred: inner}); err != nil {
			return err
		}
		removed = n
		return nil
	})
	return removed, err
}

// Update sets setColumn to newVal on every row whose column equals v,
// returning the count. It costs what DeleteWhere does.
func (r *Relation) Update(column string, v Value, setColumn string, newVal Value) (int64, error) {
	schema := r.Schema()
	setCol := schema.FieldIndex(setColumn)
	if setCol < 0 {
		return 0, fmt.Errorf("mmdb: relation %q has no column %q", r.Name(), setColumn)
	}
	if err := schema.Set(make(Tuple, schema.Width()), setCol, newVal); err != nil {
		return 0, err
	}
	eq, err := r.leaf(column, Eq, v)
	if err != nil {
		return 0, err
	}
	var changed int64
	err = r.withIntent(lock.Exclusive, func() error {
		n, err := r.rewrite(eq, func(t Tuple) Tuple {
			out := t.Clone()
			_ = schema.Set(out, setCol, newVal) // validated above
			return out
		})
		if err != nil {
			return err
		}
		if err := r.db.shipOp(r.applier, shipOp{
			kind: opUpdate, rel: r.Name(),
			column: column, value: v,
			setColumn: setColumn, newValue: newVal,
		}); err != nil {
			return err
		}
		changed = n
		return nil
	})
	return changed, err
}

// rewrite replaces every row satisfying pred (every row, when nil) by
// fn's result, or deletes it when fn returns nil, and keeps the indexes
// in step entry by entry. It returns the rows matched. The caller holds
// the exclusive intent.
//
// The matches are counted through pred's access path — an index probe
// when the §2 cost model picks one — so the heap is searched back from
// its tail only until all of them are seen; with a scan path every page
// is searched. The heap is then compacted from that page, or from the
// first page that is not full if that comes earlier, which leaves it
// byte for byte as compacting the whole relation would. Nothing is
// charged: the probe counts on a scratch clock.
func (r *Relation) rewrite(pred expr.Predicate, fn func(Tuple) Tuple) (int64, error) {
	file := r.rel.File
	from := 0
	if pred != nil {
		k := int64(-1)
		if path := chooseAccess(r.rel, pred, r.db.opts.Params); path.ix != nil {
			k = 0
			scratch := cost.NewClock(r.db.opts.Params)
			if err := path.read(file, pred, scratch, func(Tuple) bool { k++; return true }); err != nil {
				return 0, err
			}
		}
		var err error
		if from, err = file.TailStart(k, pred.Eval); err != nil {
			return 0, err
		}
	}
	var old, repl []Tuple
	err := file.Rewrite(min(from, file.Packed()), func(t Tuple) (Tuple, bool) {
		if pred != nil && !pred.Eval(t) {
			return t, true
		}
		out := fn(t)
		old, repl = append(old, t.Clone()), append(repl, out)
		return out, out != nil
	})
	if err != nil {
		return 0, err
	}
	schema := r.Schema()
	for _, col := range r.rel.IndexedColumns() {
		ix, _ := r.rel.Index(col)
		for i, t := range old {
			key := schema.KeyBytes(t, col)
			switch out := repl[i]; {
			case out == nil:
				ix.Remove(key, t)
			case bytes.Equal(key, schema.KeyBytes(out, col)):
				ix.Replace(key, t, out)
			default:
				ix.Remove(key, t)
				ix.Insert(schema.KeyBytes(out, col), out)
			}
		}
	}
	return int64(len(old)), nil
}

// AscendRange walks rows with column >= start in key order until fn
// returns false, via the column's index: the access path Select would
// take for `column >= start`, forced to the index for its key order, and
// charged the same way.
func (r *Relation) AscendRange(column string, start Value, fn func(Tuple) bool) error {
	ge, err := r.leaf(column, Ge, start)
	if err != nil {
		return err
	}
	return r.withIntent(lock.Shared, func() error {
		ix, ok := r.rel.Index(ge.Col)
		if !ok {
			return fmt.Errorf("mmdb: no index on %s.%s (range scans need one)", r.Name(), column)
		}
		// A constant with no order-preserving key leaves the walk
		// unbounded; the predicate still filters every row exactly.
		path, _ := indexRange(r.Schema(), ge.Col, []*expr.Comparison{ge})
		path.ix = ix
		return path.read(r.rel.File, ge, r.db.clock, fn)
	})
}
