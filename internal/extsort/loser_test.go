package extsort

import "bytes"

// TournamentTree is a loser (tournament) tree k-way merge: interior nodes
// hold the loser of each match, the overall winner sits at the root, and
// replacing the winner replays exactly one leaf-to-root path — ceil(log2 k)
// comparisons per tuple, touching one contiguous node array.
//
// It is NOT the engine's charged selection tree, deliberately. The §3 cost
// model charges the binary heap's data-dependent sift work, and the pinned
// sort counters (TestSortKernelIdenticalToClassic) hold that accounting
// fixed; a loser tree's fixed log2 k comparison schedule cannot
// reproduce it. The engine therefore uses kqueue (same algorithm as the
// classic heap, cache-conscious layout), and this tree is kept as the
// evaluated alternative: tested for order correctness and benchmarked in
// BenchmarkTournamentMerge so the wall-clock cost of cost-model fidelity
// stays measured instead of assumed.
//
// Sources are identified by index in [0, k). pull(src) returns the next
// key from that source; ok=false means exhausted. Keys compare by
// bytes.Compare with ties broken toward the lower source index, matching
// the merge ordering byKey realizes.
type TournamentTree struct {
	pull    func(src int) ([]byte, bool)
	keys    [][]byte // current head key per source; nil = exhausted
	losers  []int32  // interior nodes 1..m-1; losers[i] = losing source
	m       int      // leaf count: k rounded up to a power of two
	k       int
	winner  int32
	compare func(a, b []byte) int // overridable for comparison-schedule tests
}

// NewTournamentTree builds the tree over k sources, pulling each source's
// first key.
func NewTournamentTree(k int, pull func(src int) ([]byte, bool)) *TournamentTree {
	m := 1
	for m < k {
		m <<= 1
	}
	t := &TournamentTree{pull: pull, keys: make([][]byte, m), losers: make([]int32, m), m: m, k: k, compare: bytes.Compare}
	for src := 0; src < k; src++ {
		if key, ok := pull(src); ok {
			t.keys[src] = key
		}
	}
	var build func(node int) int32
	build = func(node int) int32 {
		if node >= m {
			return int32(node - m)
		}
		a := build(2 * node)
		b := build(2*node + 1)
		w, l := a, b
		if t.beats(b, a) {
			w, l = b, a
		}
		t.losers[node] = l
		return w
	}
	t.winner = build(1)
	return t
}

// beats reports whether source x's head wins against source y's: smaller
// key wins, nil (exhausted, or a padding leaf >= k) always loses, ties go
// to the lower index.
func (t *TournamentTree) beats(x, y int32) bool {
	kx, ky := t.key(x), t.key(y)
	if kx == nil {
		return false
	}
	if ky == nil {
		return true
	}
	if c := t.compare(kx, ky); c != 0 {
		return c < 0
	}
	return x < y
}

func (t *TournamentTree) key(src int32) []byte {
	if int(src) >= t.k {
		return nil
	}
	return t.keys[src]
}

// Next returns the smallest remaining head key and its source, refills that
// source, and replays the single path from its leaf to the root.
func (t *TournamentTree) Next() ([]byte, int, bool) {
	w := t.winner
	out := t.key(w)
	if out == nil {
		return nil, 0, false
	}
	if key, ok := t.pull(int(w)); ok {
		t.keys[w] = key
	} else {
		t.keys[w] = nil
	}
	cur := w
	for node := (t.m + int(w)) / 2; node >= 1; node /= 2 {
		if t.beats(t.losers[node], cur) {
			cur, t.losers[node] = t.losers[node], cur
		}
	}
	t.winner = cur
	return out, int(w), true
}
