package heap

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"mmdb/internal/simio"
	"mmdb/internal/tuple"
)

// referenceRewrite is the whole-file compaction Rewrite used to be: every
// tuple through fn, then the survivors re-appended from page 0 and
// flushed. Rewrite from the tail must leave the same pages.
func referenceRewrite(f *File, fn func(t tuple.Tuple) (tuple.Tuple, bool)) error {
	var kept []tuple.Tuple
	err := f.Scan(simio.Uncharged, func(t tuple.Tuple) bool {
		if out, keep := fn(t); keep {
			kept = append(kept, out.Clone())
		}
		return true
	})
	if err != nil {
		return err
	}
	f.space.Truncate(0)
	f.cur.Reset()
	f.tuples = 0
	for _, t := range kept {
		if err := f.Append(t, simio.Uncharged); err != nil {
			return err
		}
	}
	return f.Flush(simio.Uncharged)
}

// pageImages returns every page image of f, the append buffer included.
func pageImages(t *testing.T, f *File) [][]byte {
	t.Helper()
	var out [][]byte
	for i := 0; i < f.NumPages(); i++ {
		p, err := f.ReadPage(i, simio.Uncharged)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, append([]byte(nil), p.Bytes()...))
	}
	return out
}

// leadingFull counts the full flushed pages at the front of f: what
// Packed must report.
func leadingFull(t *testing.T, f *File) int {
	t.Helper()
	n := 0
	for ; n < f.space.NumPages(); n++ {
		p, err := f.ReadPage(n, simio.Uncharged)
		if err != nil {
			t.Fatal(err)
		}
		if !p.Full() {
			break
		}
	}
	return n
}

// TestRewriteTailMatchesFullCompaction drives random statement sequences —
// single- and multi-row appends flushed per statement, deletes and
// updates with tail, scattered, zero and all victims — and after each
// compacts one file from its tail (TailStart, capped by Packed) and a
// twin with referenceRewrite. The page images must agree byte for byte.
func TestRewriteTailMatchesFullCompaction(t *testing.T) {
	s := schema()
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			disk, _ := env()
			tail := MustCreate(disk, "tail", s)
			ref := MustCreate(disk, "ref", s)
			next := int64(0)
			for step := 0; step < 150; step++ {
				var match func(tuple.Tuple) bool
				var fn func(tuple.Tuple) (tuple.Tuple, bool)
				switch op := rng.Intn(10); {
				case op < 5: // INSERT of 1..20 rows
					rows := 1 + rng.Intn(20)
					if rng.Intn(2) == 0 {
						rows = 1
					}
					for i := 0; i < rows; i++ {
						row := s.MustEncode(tuple.IntValue(next), tuple.StringValue(fmt.Sprint("v", next%7)))
						next++
						for _, f := range []*File{tail, ref} {
							if err := f.Append(row, simio.Uncharged); err != nil {
								t.Fatal(err)
							}
						}
					}
					if rng.Intn(8) != 0 { // now and then the statement leaves the buffer unflushed
						for _, f := range []*File{tail, ref} {
							if err := f.Flush(simio.Uncharged); err != nil {
								t.Fatal(err)
							}
						}
					}
					continue
				case op < 7: // DELETE of the newest rows
					floor := next - int64(rng.Intn(30))
					match = func(r tuple.Tuple) bool { return s.Int(r, 0) >= floor }
				case op == 7: // DELETE scattered over the file
					mod := int64(2 + rng.Intn(9))
					match = func(r tuple.Tuple) bool { return s.Int(r, 0)%mod == 0 }
				case op == 8: // zero victims, or (rarely) every row
					all := rng.Intn(6) == 0
					match = func(tuple.Tuple) bool { return all }
				default: // UPDATE of one tag, rows stay in place
					tag := fmt.Sprint("v", rng.Intn(7))
					match = func(r tuple.Tuple) bool { return s.Get(r, 1).S == tag }
					fn = func(r tuple.Tuple) (tuple.Tuple, bool) {
						if !match(r) {
							return r, true
						}
						out := r.Clone()
						if err := s.Set(out, 1, tuple.StringValue("u"+tag)); err != nil {
							t.Fatal(err)
						}
						return out, true
					}
				}
				if fn == nil {
					fn = func(r tuple.Tuple) (tuple.Tuple, bool) { return r, !match(r) }
				}
				k := int64(0)
				if err := tail.Scan(simio.Uncharged, func(r tuple.Tuple) bool {
					if match(r) {
						k++
					}
					return true
				}); err != nil {
					t.Fatal(err)
				}
				if rng.Intn(4) == 0 {
					k = -1 // count unknown: the search covers the file
				}
				from, err := tail.TailStart(k, match)
				if err != nil {
					t.Fatal(err)
				}
				if err := tail.Rewrite(min(from, tail.Packed()), fn); err != nil {
					t.Fatal(err)
				}
				if err := referenceRewrite(ref, fn); err != nil {
					t.Fatal(err)
				}
				if tail.NumTuples() != ref.NumTuples() {
					t.Fatalf("step %d: %d tuples, reference %d", step, tail.NumTuples(), ref.NumTuples())
				}
				got, want := pageImages(t, tail), pageImages(t, ref)
				if len(got) != len(want) {
					t.Fatalf("step %d: %d pages, reference %d", step, len(got), len(want))
				}
				for i := range got {
					if !bytes.Equal(got[i], want[i]) {
						t.Fatalf("step %d: page %d differs from the reference", step, i)
					}
				}
				if p, want := tail.Packed(), leadingFull(t, tail); p != want {
					t.Fatalf("step %d: Packed %d, leading full pages %d", step, p, want)
				}
			}
		})
	}
}

// TestTailStartBoundsCompaction: the search stops at the page where the k-th match from
// the end lies, reports NumPages with none, and covers the file for k < 0.
func TestTailStartBoundsCompaction(t *testing.T) {
	s := schema()
	disk, _ := env()
	f := MustCreate(disk, "r", s)
	for i := int64(0); i < 100; i++ { // 12 per page: pages 0..8, buffer holds 96..99
		f.Append(s.MustEncode(tuple.IntValue(i), tuple.StringValue("x")), simio.Uncharged)
	}
	is := func(vals ...int64) func(tuple.Tuple) bool {
		return func(r tuple.Tuple) bool {
			for _, v := range vals {
				if s.Int(r, 0) == v {
					return true
				}
			}
			return false
		}
	}
	for _, c := range []struct {
		k     int64
		match func(tuple.Tuple) bool
		want  int
	}{
		{0, is(5), 9},
		{1, is(99), 8},
		{2, is(5, 99), 0},
		{1, is(50), 4},
		{-1, is(30, 70), 2},
		{-1, is(), 9},
	} {
		if got, err := f.TailStart(c.k, c.match); err != nil || got != c.want {
			t.Errorf("TailStart(%d) = %d, %v; want %d", c.k, got, err, c.want)
		}
	}
	if f.Packed() != 8 {
		t.Fatalf("Packed = %d, want 8 full flushed pages", f.Packed())
	}
}
