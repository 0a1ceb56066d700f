package extsort

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"testing"

	"mmdb/internal/cost"
	"mmdb/internal/simio"
	"mmdb/internal/tuple"
)

// TestSortKernelQueueMatchesPQueue drives the classic heap and the kernel
// queue through an identical randomized op sequence for both orderings and
// requires identical pop results and bit-identical counters.
func TestSortKernelQueueMatchesPQueue(t *testing.T) {
	for _, kind := range []lessKind{kindRunThenKey, kindKey} {
		t.Run(fmt.Sprintf("kind=%d", kind), func(t *testing.T) {
			pc := cost.NewClock(cost.DefaultParams())
			kc := cost.NewClock(cost.DefaultParams())
			pq := newRefQueue(pc, kind, 64)
			kq := newKQueue(kc, kind, 64)
			rng := rand.New(rand.NewSource(7))
			for step := 0; step < 20000; step++ {
				switch op := rng.Intn(3); {
				case op == 0 || pq.Len() == 0:
					it := item{run: rng.Intn(3), key: intKey(rng.Intn(2000)), tup: tuple.Tuple{byte(step)}}
					pq.Push(it)
					kq.Push(it)
				case op == 1:
					a, b := pq.Pop(), kq.Pop()
					if !bytes.Equal(a.key, b.key) || a.run != b.run || !bytes.Equal(a.tup, b.tup) {
						t.Fatalf("step %d: pop diverged: %+v vs %+v", step, a, b)
					}
				default:
					it := item{run: rng.Intn(3), key: intKey(rng.Intn(2000)), tup: tuple.Tuple{byte(step)}}
					a, b := pq.Replace(it), kq.Replace(it)
					if !bytes.Equal(a.key, b.key) || a.run != b.run {
						t.Fatalf("step %d: replace diverged: %+v vs %+v", step, a, b)
					}
				}
				pa, ka := pq.Len(), kq.Len()
				if pa != ka {
					t.Fatalf("step %d: len diverged %d vs %d", step, pa, ka)
				}
				if pa > 0 {
					if !bytes.Equal(pq.Peek().key, kq.Peek().key) {
						t.Fatalf("step %d: peek diverged", step)
					}
				}
			}
			if c1, c2 := pc.Counters(), kc.Counters(); c1 != c2 {
				t.Fatalf("counters diverge:\npqueue %+v\nkqueue %+v", c1, c2)
			}
		})
	}
}

// TestSortKernelPrefixFallback exercises keys longer than the 8-byte
// in-node prefix and keys of mixed lengths, where the kernel queue must
// fall back to full byte compares without drifting.
func TestSortKernelPrefixFallback(t *testing.T) {
	longKey := func(k int) []byte {
		// 12-byte keys sharing an 8-byte prefix for k in the same bucket.
		b := make([]byte, 12)
		copy(b, "prefix--")
		b[8], b[9] = byte(k>>8), byte(k)
		return b
	}
	pc := cost.NewClock(cost.DefaultParams())
	kc := cost.NewClock(cost.DefaultParams())
	pq := newRefQueue(pc, kindKey, 8)
	kq := newKQueue(kc, kindKey, 8)
	rng := rand.New(rand.NewSource(11))
	var keys [][]byte
	for i := 0; i < 4000; i++ {
		var k []byte
		if rng.Intn(2) == 0 {
			k = longKey(rng.Intn(500))
		} else {
			k = intKey(rng.Intn(500)) // 2-byte key: mixed lengths defeat `short`
		}
		keys = append(keys, k)
		pq.Push(item{key: k})
		kq.Push(item{key: k})
	}
	sort.Slice(keys, func(i, j int) bool { return bytes.Compare(keys[i], keys[j]) < 0 })
	for i := range keys {
		a, b := pq.Pop(), kq.Pop()
		if !bytes.Equal(a.key, keys[i]) || !bytes.Equal(b.key, keys[i]) {
			t.Fatalf("pop %d: got %v / %v want %v", i, a.key, b.key, keys[i])
		}
	}
	if c1, c2 := pc.Counters(), kc.Counters(); c1 != c2 {
		t.Fatalf("counters diverge:\npqueue %+v\nkqueue %+v", c1, c2)
	}
}

// TestSortKernelIdenticalToClassic pins the sort's tuple sequence (an
// FNV-64a over the output tuples' bytes) and counters across chunked plans
// and schedule widths, including a SortChunks=64-style wide root. The
// values were recorded when the kernel layout and the classic item-array
// heap both ran in production and were proven identical, so they pin the
// classic accounting; the schedule width never changes them.
func TestSortKernelIdenticalToClassic(t *testing.T) {
	for _, tc := range []struct {
		n, chunks, par int
		counters       cost.Counters
		hash           uint64
	}{
		// in-memory
		{40, 1, 1, cost.Counters{Comps: 320, Swaps: 157}, 0xa3d35d29e48c9e4b},
		// classic external
		{900, 1, 1, cost.Counters{Comps: 12352, Swaps: 6624, SeqIOs: 79, RandIOs: 79}, 0xa4dfef3582ccbd4b},
		// chunked, serial schedule
		{900, 4, 1, cost.Counters{Comps: 10491, Swaps: 5329, SeqIOs: 253, RandIOs: 253}, 0x5d216d6aee5ccd4b},
		// chunked, parallel pumps
		{900, 4, 4, cost.Counters{Comps: 10491, Swaps: 5329, SeqIOs: 253, RandIOs: 253}, 0x5d216d6aee5ccd4b},
		// very wide root (deep-merge rung)
		{2000, 64, 4, cost.Counters{Comps: 30420, Swaps: 14555, SeqIOs: 1297, RandIOs: 1297}, 0x4bb262b62233db68},
	} {
		t.Run(fmt.Sprintf("n=%d/chunks=%d/par=%d", tc.n, tc.chunks, tc.par), func(t *testing.T) {
			f := makeFile(t, tc.n, int64(tc.n)*4, 99)
			clock := f.Disk().Clock()
			before := clock.Counters()
			s, _, err := SortWith(f, Config{
				Col: 0, MemTuples: 64, MaxFanout: 8, Prefix: "t", Input: simio.Uncharged,
				Chunks: tc.chunks, Parallelism: tc.par,
			})
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			var keys []int64
			sc := f.Schema()
			for {
				tp, ok := s.Next()
				if !ok {
					break
				}
				h.Write(tp)
				keys = append(keys, sc.Int(tp, 0))
			}
			if err := s.Err(); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			c := clock.Counters().Sub(before)
			checkSorted(t, f, keys)
			if got := h.Sum64(); got != tc.hash {
				t.Errorf("output digest = %#x, want %#x", got, tc.hash)
			}
			if c != tc.counters {
				t.Errorf("counters drifted:\ngot  %#v\nwant %#v", c, tc.counters)
			}
		})
	}
}

// TestTournamentTreeMergesInOrder checks the loser-tree reference produces
// the exact merge order byKey realizes (key order, source index breaking
// ties).
func TestTournamentTreeMergesInOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const k = 9 // non-power-of-two: exercises padding leaves
	srcs := make([][][]byte, k)
	var all [][]byte
	for s := 0; s < k; s++ {
		n := rng.Intn(200)
		keys := make([][]byte, n)
		for i := range keys {
			keys[i] = intKey(rng.Intn(300))
		}
		sort.Slice(keys, func(i, j int) bool { return bytes.Compare(keys[i], keys[j]) < 0 })
		srcs[s] = keys
		all = append(all, keys...)
	}
	sort.SliceStable(all, func(i, j int) bool { return bytes.Compare(all[i], all[j]) < 0 })

	pos := make([]int, k)
	tt := NewTournamentTree(k, func(src int) ([]byte, bool) {
		if pos[src] >= len(srcs[src]) {
			return nil, false
		}
		key := srcs[src][pos[src]]
		pos[src]++
		return key, true
	})
	var got [][]byte
	lastSrc := -1
	lastKey := []byte(nil)
	for {
		key, src, ok := tt.Next()
		if !ok {
			break
		}
		if lastKey != nil && bytes.Equal(key, lastKey) && src < lastSrc {
			t.Fatalf("tie broke toward higher source: %d after %d", src, lastSrc)
		}
		lastKey, lastSrc = key, src
		got = append(got, key)
	}
	if len(got) != len(all) {
		t.Fatalf("merged %d keys, want %d", len(got), len(all))
	}
	for i := range all {
		if !bytes.Equal(got[i], all[i]) {
			t.Fatalf("order diverges at %d: %v vs %v", i, got[i], all[i])
		}
	}
}

// TestTournamentChargeScheduleDiffersFromHeap documents why the loser tree
// is a reference, not the charged structure: for the same merge its
// physical comparison count differs from the heap's charged comparisons,
// so adopting it as charged would break the §3 accounting.
func TestTournamentChargeScheduleDiffersFromHeap(t *testing.T) {
	const k = 5
	srcs := make([][][]byte, k)
	for s := 0; s < k; s++ {
		keys := make([][]byte, 50)
		for i := range keys {
			keys[i] = intKey(s + i*k)
		}
		srcs[s] = keys
	}

	clock := cost.NewClock(cost.DefaultParams())
	q := newRefQueue(clock, kindKey, k)
	pos := make([]int, k)
	for s := 0; s < k; s++ {
		q.Push(item{run: s, key: srcs[s][0]})
		pos[s] = 1
	}
	for q.Len() > 0 {
		it := q.Pop()
		if pos[it.run] < len(srcs[it.run]) {
			q.Push(item{run: it.run, key: srcs[it.run][pos[it.run]]})
			pos[it.run]++
		}
	}
	heapComps := clock.Counters().Comps

	treeComps := int64(0)
	pos = make([]int, k)
	count := func(x, y []byte) int {
		treeComps++
		return bytes.Compare(x, y)
	}
	tt := NewTournamentTree(k, func(src int) ([]byte, bool) {
		if pos[src] >= len(srcs[src]) {
			return nil, false
		}
		key := srcs[src][pos[src]]
		pos[src]++
		return key, true
	})
	tt.compare = count
	for {
		if _, _, ok := tt.Next(); !ok {
			break
		}
	}
	if heapComps == treeComps {
		t.Fatalf("expected differing comparison schedules, both %d — revisit the kernel design notes", heapComps)
	}
}
