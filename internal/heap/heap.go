// Package heap implements unordered paged relation storage (heap files)
// over the simulated disk: the base representation of the paper's relations
// R and S, and of the temporary files (sort runs, hash partitions,
// passed-over tuple files) the join algorithms create.
package heap

import (
	"fmt"

	"mmdb/internal/fault"
	"mmdb/internal/page"
	"mmdb/internal/simio"
	"mmdb/internal/tuple"
)

// File is a paged sequence of fixed-width tuples. Appends are buffered one
// page at a time; Flush writes the final partial page. An uncharged
// Append after a Flush reopens that partial page rather than starting a
// new one, so a relation written a few rows at a time still fills its
// pages. Mutation (Append, Flush, Drop, Rewrite) is not safe for
// concurrent use, but read-only Scans of a flushed file may run
// concurrently — the parallel join workers rely on this when each scans
// its own partition file.
type File struct {
	disk   *simio.Disk
	space  *simio.Space
	schema *tuple.Schema
	cur    page.TuplePage
	tuples int64
	packed int // leading flushed pages that are full (see Packed)
}

// Create makes an empty heap file named name on disk.
func Create(disk *simio.Disk, name string, schema *tuple.Schema) (*File, error) {
	space, err := disk.Create(name)
	if err != nil {
		return nil, err
	}
	return &File{
		disk:   disk,
		space:  space,
		schema: schema,
		cur:    page.New(disk.PageSize(), schema.Width()),
	}, nil
}

// MustCreate is Create that panics on error.
func MustCreate(disk *simio.Disk, name string, schema *tuple.Schema) *File {
	f, err := Create(disk, name, schema)
	if err != nil {
		panic(err)
	}
	return f
}

// Schema returns the file's tuple schema.
func (f *File) Schema() *tuple.Schema { return f.schema }

// OnDisk returns a handle on the same heap file whose IO charges through d
// — normally a View of the file's own disk (per-session cost accounting)
// or the base disk when re-homing a session-produced file. Handles share
// the page storage and the current append buffer; the caller must ensure
// at most one handle mutates the file, and never concurrently with reads
// through the others (the engine's relation-level S/X locks provide this).
func (f *File) OnDisk(d *simio.Disk) (*File, error) {
	space, err := d.Open(f.space.Name())
	if err != nil {
		return nil, err
	}
	return &File{
		disk:   d,
		space:  space,
		schema: f.schema,
		cur:    f.cur,
		tuples: f.tuples,
		packed: f.packed,
	}, nil
}

// Disk returns the disk the file lives on.
func (f *File) Disk() *simio.Disk { return f.disk }

// Name returns the underlying space name.
func (f *File) Name() string { return f.space.Name() }

// NumTuples returns the number of tuples in the file (including buffered).
func (f *File) NumTuples() int64 { return f.tuples }

// NumPages returns the number of pages the file occupies, counting a
// non-empty append buffer as one page (the paper's |R|).
func (f *File) NumPages() int {
	n := f.space.NumPages()
	if f.cur.Count() > 0 {
		n++
	}
	return n
}

// Buffered returns the number of tuples sitting in the unflushed append
// buffer — zero for any file that has been Flushed and not appended to
// since. Readers that serve tuple views (the sort's run cursors) use it to
// tell whether a page aliases the live buffer and must be cloned.
func (f *File) Buffered() int { return f.cur.Count() }

// Packed returns how many leading pages of the file are full flushed
// pages: the first page that is partial, or the append buffer. Rewriting
// from any page at or below it leaves the file as a rewrite of the whole
// file would: every page full but the last.
func (f *File) Packed() int { return f.packed }

// TuplesPerPage returns the page capacity in tuples (the paper's ||R||/|R|).
func (f *File) TuplesPerPage() int { return f.cur.Capacity() }

// Append adds t to the file. Full pages are written with the given access
// kind. An uncharged Append into an empty buffer first reopens the last
// flushed page when it is the file's only partial one (Packed() ==
// NumPages()-1): the page moves back into the buffer, to be written again
// by the next Flush. Charged appends — sort runs, partitions, spills —
// never reopen a page, so they cost what the paper's model says.
func (f *File) Append(t tuple.Tuple, a simio.Access) error {
	if len(t) != f.schema.Width() {
		return fmt.Errorf("heap: tuple width %d does not match schema width %d", len(t), f.schema.Width())
	}
	if a == simio.Uncharged && f.cur.Count() == 0 {
		if err := f.reopenTail(); err != nil {
			return err
		}
	}
	if !f.cur.Append(t) {
		if err := f.writeCur(a); err != nil {
			return err
		}
		f.cur.Append(t)
	}
	f.tuples++
	return nil
}

// reopenTail moves the last flushed page back into the empty append
// buffer when it is the file's only partial page.
func (f *File) reopenTail() error {
	last := f.space.NumPages() - 1
	if last < 0 || f.packed != last {
		return nil
	}
	data, err := f.space.Read(last, simio.Uncharged)
	if err != nil {
		return err
	}
	copy(f.cur.Bytes(), data)
	f.space.Truncate(last)
	return nil
}

// Flush writes any buffered partial page.
func (f *File) Flush(a simio.Access) error {
	if f.cur.Count() == 0 {
		return nil
	}
	return f.writeCur(a)
}

// writeCur flushes the append buffer to disk. Injected transient device
// faults are absorbed by bounded retry with virtual-time backoff; anything
// else (permanent failures, plain injected errors) propagates immediately.
func (f *File) writeCur(a simio.Access) error {
	n := -1
	err := fault.Retry(f.disk.Clock(), 0, func() error {
		var e error
		n, e = f.space.Append(f.cur.Bytes(), a)
		return e
	})
	if err != nil {
		return err
	}
	if n == f.packed && f.cur.Full() {
		f.packed++
	}
	f.cur.Reset()
	return nil
}

// ReadPage returns the n-th page of the file. The append buffer, if
// non-empty, is addressable as page NumPages()-1 and never charges IO.
// Like writeCur, injected transient faults are absorbed by bounded retry.
func (f *File) ReadPage(n int, a simio.Access) (page.TuplePage, error) {
	flushed := f.space.NumPages()
	if n < flushed {
		var data []byte
		err := fault.Retry(f.disk.Clock(), 0, func() error {
			d, e := f.space.Read(n, a)
			data = d
			return e
		})
		if err != nil {
			return page.TuplePage{}, err
		}
		return page.Wrap(data, f.schema.Width()), nil
	}
	if n == flushed && f.cur.Count() > 0 {
		return f.cur, nil
	}
	return page.TuplePage{}, fmt.Errorf("heap: page %d out of range in %q", n, f.Name())
}

// Scan iterates every tuple in file order, reading each page with the given
// access kind, until fn returns false. The tuple views passed to fn are
// only valid during the call; Clone to retain.
func (f *File) Scan(a simio.Access, fn func(t tuple.Tuple) bool) error {
	return f.ScanRange(0, f.NumPages(), a, fn)
}

// ScanRange iterates the tuples of pages [start, end) in file order, until
// fn returns false. The chunked sort's formation workers each scan their
// own disjoint page range concurrently; like Scan, the tuple views passed
// to fn are only valid during the call.
func (f *File) ScanRange(start, end int, a simio.Access, fn func(t tuple.Tuple) bool) error {
	if n := f.NumPages(); end > n {
		end = n
	}
	for i := start; i < end; i++ {
		p, err := f.ReadPage(i, a)
		if err != nil {
			return err
		}
		for j := 0; j < p.Count(); j++ {
			if !fn(p.Tuple(j)) {
				return nil
			}
		}
	}
	return nil
}

// Drop removes the file's pages from the disk.
func (f *File) Drop() {
	f.space.Truncate(0)
	f.disk.Remove(f.Name())
	f.cur.Reset()
	f.tuples = 0
	f.packed = 0
}

// TailStart returns the first page of the shortest tail of the file that
// holds k tuples satisfying match, scanning back from the last page; a
// negative k scans the whole file and returns the first page holding any.
// With no such tuple it returns NumPages(). The scan is uncharged.
func (f *File) TailStart(k int64, match func(t tuple.Tuple) bool) (int, error) {
	from := f.NumPages()
	for i := from - 1; i >= 0 && k != 0; i-- {
		p, err := f.ReadPage(i, simio.Uncharged)
		if err != nil {
			return 0, err
		}
		for j := 0; j < p.Count(); j++ {
			if match(p.Tuple(j)) {
				from = i
				k--
			}
		}
	}
	return from, nil
}

// Rewrite streams every tuple of pages [from, NumPages()) through fn and
// compacts them in place: fn returns the (possibly replaced) tuple and
// whether to keep it. Pages before from are untouched, so a rewrite costs
// the tail it covers. When from is at or below Packed() and fn would keep
// every tuple before from as it is, the file ends byte for byte as a
// rewrite from page 0 would leave it: every page full but the last. The
// rewrite is uncharged — engine-level maintenance, not part of any paper
// experiment.
func (f *File) Rewrite(from int, fn func(t tuple.Tuple) (tuple.Tuple, bool)) error {
	from = min(from, f.space.NumPages()) // the append buffer is always rewritten
	var kept []tuple.Tuple
	var seen int64
	err := f.ScanRange(from, f.NumPages(), simio.Uncharged, func(t tuple.Tuple) bool {
		seen++
		out, keep := fn(t)
		if keep {
			if len(out) != f.schema.Width() {
				err := fmt.Errorf("heap: rewrite produced a %d-byte tuple, want %d", len(out), f.schema.Width())
				panic(err)
			}
			kept = append(kept, out.Clone())
		}
		return true
	})
	if err != nil {
		return err
	}
	f.space.Truncate(from)
	f.packed = min(f.packed, from)
	f.cur.Reset()
	f.tuples -= seen
	for _, t := range kept {
		if err := f.Append(t, simio.Uncharged); err != nil {
			return err
		}
	}
	return f.Flush(simio.Uncharged)
}

// Load appends all tuples, then flushes; a convenience for test and
// workload setup (uncharged, like the paper's initial relation reads).
func (f *File) Load(tuples []tuple.Tuple) error {
	for _, t := range tuples {
		if err := f.Append(t, simio.Uncharged); err != nil {
			return err
		}
	}
	return f.Flush(simio.Uncharged)
}
