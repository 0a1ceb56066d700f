package heap

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"mmdb/internal/simio"
	"mmdb/internal/tuple"
)

// tuplesOf returns copies of every tuple of f in file order.
func tuplesOf(t *testing.T, f *File) []tuple.Tuple {
	t.Helper()
	var out []tuple.Tuple
	if err := f.Scan(simio.Uncharged, func(r tuple.Tuple) bool {
		out = append(out, r.Clone())
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// checkLikeLoad compares f page for page with a fresh file Loaded with
// f's tuples — every page full but the last — and checks Packed.
func checkLikeLoad(t *testing.T, f *File, step string) {
	t.Helper()
	fresh := MustCreate(simio.NewDisk(f.disk.Clock(), f.disk.PageSize()), "fresh", f.schema)
	if err := fresh.Load(tuplesOf(t, f)); err != nil {
		t.Fatal(err)
	}
	got, want := pageImages(t, f), pageImages(t, fresh)
	if len(got) != len(want) {
		t.Fatalf("%s: %d pages, a fresh Load has %d", step, len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("%s: page %d differs from a fresh Load's", step, i)
		}
	}
	if got, want := f.Packed(), leadingFull(t, f); got != want {
		t.Fatalf("%s: Packed() = %d, %d leading pages are full", step, got, want)
	}
	if f.NumTuples() != fresh.NumTuples() {
		t.Fatalf("%s: NumTuples() = %d, holds %d", step, f.NumTuples(), fresh.NumTuples())
	}
}

// TestUnchargedAppendsReopenTail interleaves uncharged appends of a
// few rows, flushes, tail rewrites and TailStart probes. Each Append
// after a Flush reopens the partial tail page, so after every step the
// file's pages are those of a fresh Load of the same tuples.
func TestUnchargedAppendsReopenTail(t *testing.T) {
	s := schema()
	for seed := int64(1); seed <= 10; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			disk, _ := env()
			f := MustCreate(disk, "r", s)
			next := int64(0)
			for step := 0; step < 200; step++ {
				var what string
				switch op := rng.Intn(10); {
				case op < 5:
					rows := 1 + rng.Intn(30)
					for i := 0; i < rows; i++ {
						if err := f.Append(s.MustEncode(tuple.IntValue(next), tuple.StringValue("v")), simio.Uncharged); err != nil {
							t.Fatal(err)
						}
						next++
					}
					what = fmt.Sprintf("append %d", rows)
				case op < 8:
					if err := f.Flush(simio.Uncharged); err != nil {
						t.Fatal(err)
					}
					what = "flush"
				case op == 8:
					floor := next - int64(rng.Intn(20))
					match := func(r tuple.Tuple) bool { return s.Int(r, 0) >= floor }
					from, err := f.TailStart(-1, match)
					if err != nil {
						t.Fatal(err)
					}
					if err := f.Rewrite(min(from, f.Packed()), func(r tuple.Tuple) (tuple.Tuple, bool) {
						return r, !match(r)
					}); err != nil {
						t.Fatal(err)
					}
					what = "rewrite"
				default:
					if _, err := f.TailStart(int64(rng.Intn(5)), func(r tuple.Tuple) bool { return s.Int(r, 0)%3 == 0 }); err != nil {
						t.Fatal(err)
					}
					what = "tailstart"
				}
				checkLikeLoad(t, f, fmt.Sprintf("step %d (%s)", step, what))
			}
		})
	}
}

// TestChargedAppendNeverReopensTail: appends charged on the virtual clock —
// sort runs, partitions, spills — start a fresh page after every Flush,
// exactly as before uncharged appends learned to reopen one, and charge
// one write per page they fill.
func TestChargedAppendNeverReopensTail(t *testing.T) {
	s := schema()
	disk, clock := env()
	f := MustCreate(disk, "run", s)
	per := f.TuplesPerPage()
	for stmt := 0; stmt < 4; stmt++ {
		for i := 0; i < per/2; i++ {
			if err := f.Append(s.MustEncode(tuple.IntValue(int64(i)), tuple.StringValue("r")), simio.Seq); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.Flush(simio.Seq); err != nil {
			t.Fatal(err)
		}
	}
	if f.NumPages() != 4 || f.Packed() != 0 {
		t.Fatalf("charged append/flush x4: %d pages, Packed %d; want 4 half pages, Packed 0", f.NumPages(), f.Packed())
	}
	if got := clock.Counters().SeqIOs; got != 4 {
		t.Fatalf("charged append/flush x4 charged %d sequential IOs, want 4", got)
	}
	// An uncharged append after a charged flush of a partial page reopens
	// only if that page is the file's sole partial one; here it is not.
	if err := f.Append(s.MustEncode(tuple.IntValue(9), tuple.StringValue("u")), simio.Uncharged); err != nil {
		t.Fatal(err)
	}
	if f.NumPages() != 5 || f.Buffered() != 1 {
		t.Fatalf("uncharged append past several partial pages: %d pages, %d buffered; want a fresh fifth page", f.NumPages(), f.Buffered())
	}
}

// TestReopenedTailServesReads: after an uncharged append reopens the
// tail page, the reopened tuples are read back from the append buffer and
// a Flush writes the page again in place of the old one.
func TestReopenedTailServesReads(t *testing.T) {
	s := schema()
	disk, clock := env()
	f := MustCreate(disk, "r", s)
	row := func(k int64) tuple.Tuple { return s.MustEncode(tuple.IntValue(k), tuple.StringValue("x")) }
	for k := int64(0); k < 3; k++ {
		if err := f.Append(row(k), simio.Uncharged); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Flush(simio.Uncharged); err != nil {
		t.Fatal(err)
	}
	if err := f.Append(row(3), simio.Uncharged); err != nil {
		t.Fatal(err)
	}
	if f.NumPages() != 1 || f.Buffered() != 4 {
		t.Fatalf("after reopening: %d pages, %d buffered; want 1 and 4", f.NumPages(), f.Buffered())
	}
	if err := f.Flush(simio.Uncharged); err != nil {
		t.Fatal(err)
	}
	got := tuplesOf(t, f)
	if len(got) != 4 || f.NumPages() != 1 || f.Buffered() != 0 {
		t.Fatalf("after the second flush: %d tuples on %d pages, %d buffered", len(got), f.NumPages(), f.Buffered())
	}
	for k, r := range got {
		if s.Int(r, 0) != int64(k) {
			t.Fatalf("tuple %d holds key %d", k, s.Int(r, 0))
		}
	}
	if c := clock.Counters(); c.SeqIOs != 0 || c.RandIOs != 0 {
		t.Fatalf("uncharged appends and flushes charged %+v", c)
	}
}
