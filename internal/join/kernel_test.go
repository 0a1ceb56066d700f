package join

import (
	"fmt"
	"hash/fnv"
	"testing"

	"mmdb/internal/cost"
	"mmdb/internal/tuple"
)

// pinnedJoin is one join shape's expected execution on the kernel-test
// relations: the clock counters, the match count, an order-independent
// digest of the match multiset (the sum of each pair's FNV-64a), and the
// FNV-64a of the width-1 emission sequence. The values were recorded when
// the radix kernel and the classic chained layout both ran in production
// and were proven identical, so they pin the classic layout's accounting.
type pinnedJoin struct {
	counters cost.Counters
	matches  int64
	set, seq uint64
}

// kernelJoinSet is the match-multiset digest every shape below must
// produce: all algorithms compute the same join.
const kernelJoinSet = 0x3773f7ee767436d7

// runKernelCase executes one join on a fresh disk, returning the result,
// the full clock counters, and the multiset and emission-sequence digests.
func runKernelCase(t *testing.T, a Algorithm, width int, mutate func(*Spec)) (Result, cost.Counters, uint64, uint64) {
	t.Helper()
	disk, clock := testEnv()
	r := makeRelation(t, disk, "R", 600, 150, 77)
	s := makeRelation(t, disk, "S", 900, 150, 78)
	spec := Spec{R: r, S: s, M: 12, Parallelism: width}
	if mutate != nil {
		mutate(&spec)
	}
	seq := fnv.New64a()
	var set uint64
	res, err := Run(a, spec, func(r, s tuple.Tuple) {
		p := []byte(fmt.Sprintf("%x|%x\n", []byte(r), []byte(s)))
		seq.Write(p)
		h := fnv.New64a()
		h.Write(p)
		set += h.Sum64()
	})
	if err != nil {
		t.Fatalf("%v width=%d: %v", a, width, err)
	}
	return res, clock.Counters(), set, seq.Sum64()
}

// checkPinned compares one execution against its pinned values; the
// emission sequence is only pinned at width 1, where it is deterministic.
func checkPinned(t *testing.T, width int, want pinnedJoin, res Result, c cost.Counters, set, seq uint64) {
	t.Helper()
	if c != want.counters {
		t.Errorf("counters drifted:\ngot  %#v\nwant %#v", c, want.counters)
	}
	if res.Matches != want.matches {
		t.Errorf("matches = %d, want %d", res.Matches, want.matches)
	}
	if set != want.set {
		t.Errorf("match multiset digest = %#x, want %#x", set, want.set)
	}
	if width == 1 && seq != want.seq {
		t.Errorf("width-1 emission sequence digest = %#x, want %#x", seq, want.seq)
	}
}

// TestRadixKernelJoinsIdentical pins each hash and sort-merge join shape
// to the counters, matches and (at width 1) emission sequence the classic
// layouts produced: the cache-conscious kernels are layout changes only,
// so every schedule width must reproduce them bit for bit.
func TestRadixKernelJoinsIdentical(t *testing.T) {
	for ai, tc := range []struct {
		a      Algorithm
		mutate func(*Spec)
		want   pinnedJoin
	}{
		{SimpleHash, nil, pinnedJoin{
			cost.Counters{Comps: 3567, Hashes: 4962, Moves: 4062, SeqIOs: 584},
			3567, kernelJoinSet, 0xa6977401cde28229}},
		{GraceHash, nil, pinnedJoin{
			cost.Counters{Comps: 3567, Hashes: 3000, Moves: 2100, SeqIOs: 136, RandIOs: 136},
			3567, kernelJoinSet, 0xba33da7ec3bdcab1}},
		{HybridHash, nil, pinnedJoin{
			cost.Counters{Comps: 3567, Hashes: 2883, Moves: 1983, SeqIOs: 121, RandIOs: 121},
			3567, kernelJoinSet, 0x34c478578afa1d55}},
		// Degenerate all-resident path (sharded build at width > 1).
		{HybridHash, func(s *Spec) { s.M = 300 }, pinnedJoin{
			cost.Counters{Comps: 3567, Hashes: 1500, Moves: 600},
			3567, kernelJoinSet, 0x529ea9b17826b301}},
		{SortMerge, func(s *Spec) { s.SortChunks = 4 }, pinnedJoin{
			cost.Counters{Comps: 19407, Swaps: 9858, SeqIOs: 343, RandIOs: 343},
			3567, kernelJoinSet, 0xa90cdd3b09501311}},
	} {
		for _, width := range []int{1, 2, 4, 8} {
			t.Run(fmt.Sprintf("%v.%d/width=%d", tc.a, ai, width), func(t *testing.T) {
				res, c, set, seq := runKernelCase(t, tc.a, width, tc.mutate)
				checkPinned(t, width, tc.want, res, c, set, seq)
			})
		}
	}
}

// TestRadixKernelDegradeIdentical revokes hybrid's memory grant mid-build
// (deterministically, by consultation count) and requires the batched
// probe path to spill at the same tuple boundary the classic layout did:
// GRACE fallback, pinned counters and matches at every width, and at
// width 1 the pinned emission order.
func TestRadixKernelDegradeIdentical(t *testing.T) {
	want := pinnedJoin{
		cost.Counters{Comps: 3567, Hashes: 5206, Moves: 4327, SeqIOs: 395, RandIOs: 373},
		3567, kernelJoinSet, 0xbbacf4a8c964b851}
	for _, width := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("width=%d", width), func(t *testing.T) {
			grant := &revocableGrant{full: 12, shrunken: 2, after: 20}
			res, c, set, seq := runKernelCase(t, HybridHash, width, func(s *Spec) {
				s.LiveM = grant.pages
			})
			if !res.GraceFallback {
				t.Fatal("expected the revoked grant to force the GRACE fallback")
			}
			checkPinned(t, width, want, res, c, set, seq)
		})
	}
}

// TestRadixKernelMatchesOracle runs the full oracle check across plan
// shapes that force recursion and chunked fallbacks, so the batched probe
// path is validated against nested loops.
func TestRadixKernelMatchesOracle(t *testing.T) {
	disk, _ := testEnv()
	r := makeRelation(t, disk, "R", 500, 40, 79) // heavy duplicates
	s := makeRelation(t, disk, "S", 700, 40, 80)
	for _, m := range []int{4, 12, 300} {
		checkAgainstOracle(t, Spec{R: r, S: s, M: m})
	}
}
