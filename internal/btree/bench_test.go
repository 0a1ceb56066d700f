package btree

import (
	"math/rand"
	"testing"

	"mmdb/internal/tuple"
)

func benchTree(n int) (*Tree, []int64) {
	tr := MustNew(Config{PageSize: 4096, KeyWidth: 8, TupleWidth: 100})
	rng := rand.New(rand.NewSource(1))
	keys := make([]int64, n)
	for i, k := range rng.Perm(n) {
		keys[i] = int64(k)
		tr.Insert(key(int64(k)), wideTup(int64(k), 100))
	}
	return tr, keys
}

func BenchmarkInsert(b *testing.B) {
	tr := MustNew(Config{PageSize: 4096, KeyWidth: 8, TupleWidth: 100})
	t := make(tuple.Tuple, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := key(int64(i * 2654435761))
		copy(t, k)
		tr.Insert(k, t)
	}
}

func BenchmarkSearch(b *testing.B) {
	tr, keys := benchTree(100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Search(key(keys[i%len(keys)]), nil)
	}
}

func BenchmarkAscend100(b *testing.B) {
	tr, keys := benchTree(100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		tr.AscendRange(key(keys[i%len(keys)]), nil, func([]byte, tuple.Tuple) bool {
			n++
			return n < 100
		})
	}
}

func BenchmarkBulkLoad(b *testing.B) {
	const n = 100000
	keys := make([][]byte, n)
	tups := make([]tuple.Tuple, n)
	for i := 0; i < n; i++ {
		keys[i] = key(int64(i))
		tups[i] = wideTup(int64(i), 100)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := MustNew(Config{PageSize: 4096, KeyWidth: 8, TupleWidth: 100})
		if err := tr.BulkLoad(keys, tups, 0); err != nil {
			b.Fatal(err)
		}
	}
}
