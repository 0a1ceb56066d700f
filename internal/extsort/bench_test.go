package extsort

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sort"
	"testing"

	"mmdb/internal/cost"
)

// benchRuns builds k sorted runs of 8-byte keys totaling n tuples, the
// shape a merge root sees.
func benchRuns(k, n int) [][][]byte {
	rng := rand.New(rand.NewSource(42))
	runs := make([][][]byte, k)
	per := n / k
	for s := 0; s < k; s++ {
		keys := make([][]byte, per)
		for i := range keys {
			b := make([]byte, 8)
			binary.BigEndian.PutUint64(b, rng.Uint64())
			keys[i] = b
		}
		sort.Slice(keys, func(i, j int) bool { return bytes.Compare(keys[i], keys[j]) < 0 })
		runs[s] = keys
	}
	return runs
}

// BenchmarkTournamentMerge merges k sorted runs with each selection
// structure. Compare with:
//
//	go test -bench TournamentMerge -benchmem ./internal/extsort/ | benchstat -col /layout -
//
// layout=heap is the classic pointer-chasing pqueue reference,
// layout=kernel the charged cache-conscious kqueue, layout=loser the
// uncharged loser-tree reference (fixed log2 k comparison schedule the cost model cannot adopt).
func BenchmarkTournamentMerge(b *testing.B) {
	const k, n = 64, 1 << 18
	runs := benchRuns(k, n)
	heapMerge := func(newQueue func(*cost.Clock) selTree) {
		q := newQueue(cost.NewClock(cost.DefaultParams()))
		pos := make([]int, k)
		for s := 0; s < k; s++ {
			q.Push(item{run: s, key: runs[s][0]})
			pos[s] = 1
		}
		for q.Len() > 0 {
			it := q.Pop()
			if pos[it.run] < len(runs[it.run]) {
				q.Push(item{run: it.run, key: runs[it.run][pos[it.run]]})
				pos[it.run]++
			}
		}
	}
	b.Run("layout=heap", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			heapMerge(func(c *cost.Clock) selTree { return newRefQueue(c, kindKey, k) })
		}
	})
	b.Run("layout=kernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			heapMerge(func(c *cost.Clock) selTree { return newKQueue(c, kindKey, k) })
		}
	})
	b.Run("layout=loser", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pos := make([]int, k)
			tt := NewTournamentTree(k, func(src int) ([]byte, bool) {
				if pos[src] >= len(runs[src]) {
					return nil, false
				}
				key := runs[src][pos[src]]
				pos[src]++
				return key, true
			})
			for {
				if _, _, ok := tt.Next(); !ok {
					break
				}
			}
		}
	})
}
